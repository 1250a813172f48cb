package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/fleet"
)

// Handler exposes the service as an HTTP/JSON API:
//
//	POST /v1/campaigns                      submit a core.Spec (X-Tenant header), 202 + {"id": ...}
//	GET  /v1/campaigns/{id}                 status
//	GET  /v1/campaigns/{id}/result          canonical merged bytes (409 until done)
//	POST /v1/leases                         claim a shard lease (204 when idle)
//	POST /v1/leases/{id}/renew              heartbeat
//	POST /v1/leases/{id}/complete           report a fleet.ShardResult
//	POST /v1/leases/{id}/fail               report a shard error
//
// Admission errors map onto statuses: 429 queue/tenant pressure, 413
// oversized campaign, 410 lost lease, 409 result not ready, 404
// unknown campaign. Every error body is {"error": err.Error()}, which
// is what the Client restores the sentinels from.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/leases", s.handleClaim)
	mux.HandleFunc("POST /v1/leases/{id}/renew", s.handleRenew)
	mux.HandleFunc("POST /v1/leases/{id}/complete", s.handleComplete)
	mux.HandleFunc("POST /v1/leases/{id}/fail", s.handleFail)
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := core.ParseSpec(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.Submit(r.Header.Get("X-Tenant"), spec)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	data, err := s.ResultBytes(r.PathValue("id"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Service) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	lease, err := s.Claim(req.Worker)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

func (s *Service) handleRenew(w http.ResponseWriter, r *http.Request) {
	if err := s.Renew(r.PathValue("id")); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleComplete(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var sr fleet.ShardResult
	if err := json.Unmarshal(body, &sr); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.Complete(r.PathValue("id"), sr); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleFail(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.Fail(r.PathValue("id"), req.Reason); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// statusFor maps service errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantBudget):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotReady):
		return http.StatusConflict
	case errors.Is(err, ErrNoLease):
		return http.StatusGone
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
