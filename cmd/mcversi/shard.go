package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/fleet"
)

// shardFile is what -shard writes and -merge reads: one item range's
// results with the campaign set they belong to.
type shardFile struct {
	Spec  core.Spec         `json:"spec"`
	Shard fleet.ShardResult `json:"shard"`
}

// decodeStrict decodes data, one JSON object, into v. Like
// core.ParseSpec it refuses a field v does not have and anything after
// the object, so a cut-off or appended-to file fails.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON object")
	}
	return nil
}

// readShard loads a shard file through decodeStrict.
func readShard(path string) (shardFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return shardFile{}, err
	}
	var f shardFile
	if err := decodeStrict(data, &f); err != nil {
		return shardFile{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Spec.Validate(); err != nil {
		return shardFile{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// mergeFiles folds shard files of one campaign set into its merged
// result. Every file must carry the same spec, and together their
// ranges must cover the set's items exactly once, in any order; an
// error names the file at fault.
func mergeFiles(paths []string) (core.Spec, fleet.Merged, error) {
	files := make([]shardFile, len(paths))
	var spec []byte
	for i, p := range paths {
		f, err := readShard(p)
		if err != nil {
			return core.Spec{}, fleet.Merged{}, err
		}
		s, err := json.Marshal(f.Spec)
		if err != nil {
			return core.Spec{}, fleet.Merged{}, err
		}
		if i == 0 {
			spec = s
		} else if !bytes.Equal(s, spec) {
			return core.Spec{}, fleet.Merged{}, fmt.Errorf("%s: its campaign set differs from %s's", p, paths[0])
		}
		files[i] = f
	}

	// fleet.MergeShards refuses a gap or an overlap too; walking the
	// ranges here first names the file.
	order := make([]int, len(files))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return files[order[a]].Shard.Range.Start < files[order[b]].Shard.Range.Start
	})
	items := files[0].Spec.Items()
	next, prev := 0, -1
	for _, i := range order {
		r := files[i].Shard.Range
		switch {
		case r.Len() <= 0 || r.End > items:
			return core.Spec{}, fleet.Merged{}, fmt.Errorf("%s: shard %s is not a range of the set's %d items", paths[i], r, items)
		case r.Start < next:
			return core.Spec{}, fleet.Merged{}, fmt.Errorf("%s: shard %s overlaps shard %s of %s", paths[i], r, files[prev].Shard.Range, paths[prev])
		case r.Start > next:
			return core.Spec{}, fleet.Merged{}, fmt.Errorf("%s: items [%d,%d) before its shard %s are in no file", paths[i], next, r.Start, r)
		}
		next, prev = r.End, i
	}
	if next < items {
		return core.Spec{}, fleet.Merged{}, fmt.Errorf("%s: items [%d,%d) after its shard are in no file", paths[prev], next, items)
	}

	shards := make([]fleet.ShardResult, len(files))
	for i, f := range files {
		shards[i] = f.Shard
	}
	merged, err := fleet.MergeShards(items, shards)
	return files[0].Spec, merged, err
}

// runMerge is -merge: it prints and writes what a local run of the
// shards' campaign set prints and writes.
func runMerge(paths []string, mergedOut, bundleDir string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mcversi:", err)
		return 1
	}
	out, err := createOutput(mergedOut)
	if err != nil {
		return fail(err)
	}
	defer out.discard()
	spec, merged, err := mergeFiles(paths)
	if err != nil {
		return fail(err)
	}
	report(stdout, spec, merged)
	if err := writeOutputs(spec, merged, bundleDir, out, stderr); err != nil {
		return fail(err)
	}
	return 0
}

// output is a result file opened before the work that fills it: a
// temporary file beside the destination, renamed into place once
// written whole. An unwritable destination fails up front, and neither
// a failed run nor a crash mid-write leaves a file under the final
// name. A nil *output is no file.
type output struct {
	path string
	tmp  *os.File
}

// createOutput opens the temporary file for path ("" = no file).
func createOutput(path string) (*output, error) {
	if path == "" {
		return nil, nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &output{path: path, tmp: tmp}, nil
}

// write stores data and renames the file into place.
func (o *output) write(data []byte) error {
	tmp := o.tmp
	o.tmp = nil
	_, err := tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), o.path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// discard removes the temporary file if write never ran.
func (o *output) discard() {
	if o == nil || o.tmp == nil {
		return
	}
	o.tmp.Close()
	os.Remove(o.tmp.Name())
}
