package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// SubmitRequest is the POST /v1/jobs body: exactly one of Verilog (inline
// structural Verilog; set Top for hierarchical sources) or Bench (a named
// internal/bench profile, see gatewords.BenchmarkNames).
type SubmitRequest struct {
	Verilog string     `json:"verilog,omitempty"`
	Top     string     `json:"top,omitempty"`
	Bench   string     `json:"bench,omitempty"`
	Options JobOptions `json:"options"`
}

// JobStatus is the wire form of a job, served by the submit and poll
// endpoints. Report is attached once the job is done.
type JobStatus struct {
	ID            string          `json:"id"`
	Status        string          `json:"status"`
	Module        string          `json:"module"`
	Key           string          `json:"key"`
	Cached        bool            `json:"cached,omitempty"`
	CoalescedWith string          `json:"coalesced_with,omitempty"`
	Interrupted   bool            `json:"interrupted,omitempty"`
	Error         string          `json:"error,omitempty"`
	Report        json.RawMessage `json:"report,omitempty"`
}

// statusLocked renders a job under the server mutex.
func statusLocked(j *Job, includeReport bool) JobStatus {
	st := JobStatus{
		ID:            j.ID,
		Status:        j.State,
		Module:        j.Module,
		Key:           j.Key,
		Cached:        j.Cached,
		CoalescedWith: j.CoalescedWith,
		Interrupted:   j.Interrupted,
		Error:         j.Err,
	}
	if includeReport && j.State == StateDone {
		st.Report = j.Report
	}
	return st
}

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs          submit a netlist; 202 (accepted) or 200 (cache hit)
//	GET  /v1/jobs          list jobs in submission order (no reports)
//	GET  /v1/jobs/{id}     poll one job; report attached when done
//	GET  /metrics          server counters + merged pipeline observability
//	GET  /healthz          liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503 with
// {"state":"draining"} from the moment shutdown begins until the process
// exits, so load balancers stop routing new work while in-flight jobs drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"state": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "state": "ready"})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error":       fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				"limit_bytes": tooBig.Limit,
			})
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	src := Source{Bench: req.Bench, Verilog: req.Verilog, Top: req.Top}
	d, err := parseSource(src)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.SubmitSource(d, req.Options, src)
	if err != nil {
		var se *submitError
		if errors.As(err, &se) {
			if se.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(se.retryAfter))
			}
			if se.doc != nil {
				writeJSON(w, se.status, se.doc)
			} else {
				writeError(w, se.status, "%s", se.msg)
			}
		} else {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.mu.Lock()
	st := statusLocked(job, true)
	s.mu.Unlock()
	code := http.StatusAccepted
	if st.Cached {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	s.mu.Lock()
	st := statusLocked(job, true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		list = append(list, statusLocked(s.jobs[id], false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

// MetricsDoc is the GET /metrics payload. Server holds the daemon's own
// events (jobs, cache, shedding, quarantine, journal); Pipeline is the
// deterministic rendering (arrays in enum order) of the pipeline work every
// executed job recorded into the server's shared Observer.
type MetricsDoc struct {
	Server   Counters        `json:"server"`
	Pipeline json.RawMessage `json:"pipeline"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	counters, observer := s.Metrics()
	pipeline, err := observer.MarshalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "rendering metrics: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, MetricsDoc{Server: counters, Pipeline: pipeline})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
