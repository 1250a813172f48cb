// Package nd seeds nondeterm true positives (wall-clock reads, global
// RNG draws, environment reads, sync.Pools) and the
// allowlisted/constructor cases that must stay silent.
package nd

import (
	"math/rand"
	"os"
	"sync"
	"time"
)

func clocks() time.Duration {
	t0 := time.Now()    // want `time\.Now reads the wall clock`
	d := time.Since(t0) // want `time\.Since reads the wall clock`

	//mcvlint:allow nondeterm progress lap for the event stream; never reaches canonical results
	_ = time.Now()

	// Constructors and conversions are deterministic.
	_ = time.Unix(0, 0)
	_ = time.Duration(5) * time.Millisecond
	return d
}

// Passing the function as a value is the same leak as calling it.
var clockFn = time.Now // want `time\.Now reads the wall clock`

func rngs() int {
	n := rand.Intn(4) // want `rand\.Intn uses the global RNG`
	// Explicitly seeded instances are the sanctioned source.
	r := rand.New(rand.NewSource(1))
	return n + r.Intn(4)
}

func envs() (string, bool) {
	v := os.Getenv("HOME")        // want `os\.Getenv reads ambient process state`
	_, ok := os.LookupEnv("PATH") // want `os\.LookupEnv reads ambient process state`
	// Non-environment os calls are fine.
	_ = os.PathSeparator
	return v, ok
}

// A pool's Get builds a new object whenever the collector emptied it.
var scratch = sync.Pool{New: func() any { return new([64]byte) }} // want `sync\.Pool .* depend on when the collector ran`

type owner struct {
	mu   sync.Mutex // other sync types are deterministic
	free *sync.Pool // want `sync\.Pool`
}
