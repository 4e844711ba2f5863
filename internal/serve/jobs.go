package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"carsgo/internal/serve/cache"
)

// The async job API wraps the same serving core as the synchronous
// endpoints for clients that would rather poll than hold a connection
// open across a long simulation: POST /v1/jobs returns an id
// immediately, GET /v1/jobs/{id} reports status, and
// GET /v1/jobs/{id}/result delivers the payload once done. Async jobs
// still flow through the cache, the single-flight group, and the
// bounded pool — an async duplicate of a synchronous request collapses
// onto the same execution.

// JobRequest is the async submission envelope: the endpoint kind plus
// that endpoint's request document.
type JobRequest struct {
	Kind       string             `json:"kind"` // simulate | vet | experiment
	Simulate   *SimulateRequest   `json:"simulate,omitempty"`
	Vet        *VetRequest        `json:"vet,omitempty"`
	Experiment *ExperimentRequest `json:"experiment,omitempty"`
}

// JobStatus is the polling document.
type JobStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Status string `json:"status"` // pending | done | error
	Key    string `json:"key,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	AgeMs  int64  `json:"ageMs"`
}

// asyncJob is one submitted job's lifecycle record.
type asyncJob struct {
	id      string
	kind    string
	created time.Time
	cancel  context.CancelFunc
	done    chan struct{}

	mu     sync.Mutex
	data   []byte
	key    cache.Key
	cached bool
	err    error
}

func (j *asyncJob) finish(data []byte, key cache.Key, cached bool, err error) {
	j.mu.Lock()
	j.data, j.key, j.cached, j.err = data, key, cached, err
	j.mu.Unlock()
	close(j.done)
}

func (j *asyncJob) status() JobStatus {
	st := JobStatus{ID: j.id, Kind: j.kind, Status: "pending",
		AgeMs: time.Since(j.created).Milliseconds()}
	select {
	case <-j.done:
		j.mu.Lock()
		if j.err != nil {
			st.Status, st.Error = "error", j.err.Error()
		} else {
			st.Status, st.Key, st.Cached = "done", j.key.String(), j.cached
		}
		j.mu.Unlock()
	default:
	}
	return st
}

// jobStore is the bounded registry of async jobs. When full, finished
// jobs are evicted oldest-first to make room; if every slot is still
// pending, new submissions are refused — the async path has the same
// explicit admission bound as the queue itself.
type jobStore struct {
	mu    sync.Mutex
	byID  map[string]*asyncJob
	order []*asyncJob
	cap   int
}

func newJobStore(capacity int) *jobStore {
	if capacity < 1 {
		capacity = 1
	}
	return &jobStore{byID: map[string]*asyncJob{}, cap: capacity}
}

func (s *jobStore) add(j *asyncJob) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) >= s.cap {
		// Evict finished jobs oldest-first until one slot frees.
		need := len(s.order) - s.cap + 1
		kept := make([]*asyncJob, 0, len(s.order))
		freed := 0
		for _, old := range s.order {
			finished := false
			select {
			case <-old.done:
				finished = true
			default:
			}
			if finished && freed < need {
				delete(s.byID, old.id)
				freed++
				continue
			}
			kept = append(kept, old)
		}
		s.order = kept
		if len(s.order) >= s.cap {
			return fmt.Errorf("job store full (%d pending jobs)", len(s.order))
		}
	}
	s.byID[j.id] = j
	s.order = append(s.order, j)
	return nil
}

func (s *jobStore) get(id string) (*asyncJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

func (s *jobStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

func newJobID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Resolve the embedded request up front so submission errors are
	// synchronous answers, the same ones the synchronous endpoints give,
	// not parked error records.
	var (
		p    prepared
		rerr *requestError
	)
	switch req.Kind {
	case "simulate":
		if req.Simulate == nil {
			writeError(w, http.StatusBadRequest, "bad_request", "kind simulate needs a simulate document")
			return
		}
		p, rerr = s.prepareSimulate(req.Simulate)
	case "vet":
		if req.Vet == nil {
			writeError(w, http.StatusBadRequest, "bad_request", "kind vet needs a vet document")
			return
		}
		p, rerr = prepareVet(req.Vet)
	case "experiment":
		if req.Experiment == nil {
			writeError(w, http.StatusBadRequest, "bad_request", "kind experiment needs an experiment document")
			return
		}
		p, rerr = s.prepareExperiment(req.Experiment)
	default:
		writeError(w, http.StatusBadRequest, "bad_request",
			"unknown job kind %q (want simulate, vet, or experiment)", req.Kind)
		return
	}
	if rerr != nil {
		rerr.write(w)
		return
	}

	// The job runs under the daemon lifetime, not the submit request:
	// the whole point of the async path is outliving the connection.
	ctx, cancel := context.WithTimeout(s.baseCtx, s.reqTimeout(p.timeout))
	j := &asyncJob{id: newJobID(), kind: req.Kind, created: time.Now(),
		cancel: cancel, done: make(chan struct{})}
	if err := s.jobs.add(j); err != nil {
		cancel()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, "jobs_full", "%v", err)
		return
	}
	go func() {
		defer cancel()
		data, cached, _, err := s.execCached(ctx, p.key, p.job)
		j.finish(data, p.key, cached, err)
	}()
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleJobPoll(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobFetch(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	select {
	case <-j.done:
	default:
		writeError(w, http.StatusConflict, "pending", "job %s is still running", j.id)
		return
	}
	j.mu.Lock()
	data, key, cached, err := j.data, j.key, j.cached, j.err
	j.mu.Unlock()
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	respond(w, key, data, cached, false)
}
