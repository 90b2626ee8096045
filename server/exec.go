package server

import (
	"context"
	"net/http"

	"connquery"
)

// handleExec serves POST /v1/exec: decode the envelope, build the typed
// Request and its options, execute against one MVCC snapshot, encode the
// Answer. The request context is the HTTP request's — a dropped connection
// cancels the query inside the engine's hot loops — optionally tightened
// by timeout_ms and the server's RequestTimeout cap.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	defer s.track()()
	var env ExecRequest
	if err := decodeBody(w, r, &env); err != nil {
		s.stats.execErrors.Add(1)
		s.writeErr(w, statusOf(err), err) // 413 for an over-cap body, else 400
		return
	}
	req, err := env.ToRequest()
	if err != nil {
		s.stats.execErrors.Add(1)
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	opts, release, err := s.execOptions(&env)
	if err != nil {
		s.stats.execErrors.Add(1)
		s.writeErr(w, statusOf(err), err)
		return
	}
	defer release()

	ctx := r.Context()
	if t := env.timeout(s.cfg.RequestTimeout); t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	ans, err := s.db.Exec(ctx, req, opts...)
	if err != nil {
		s.stats.execErrors.Add(1)
		if r.Context().Err() != nil {
			// The client is gone; nobody reads an error body.
			return
		}
		s.writeErr(w, statusOf(err), err)
		return
	}
	s.stats.record(req.Kind(), ans.Metrics(), ans.Cached())
	writeJSON(w, http.StatusOK, EncodeAnswer(ans))
}

// execOptions translates the envelope's option fields into QueryOptions.
// When the envelope names a server-held snapshot, its pin is leased for
// the duration of the call: the returned release func (always non-nil)
// ends the lease, and the lease also slides the pin's TTL deadline.
func (s *Server) execOptions(env *ExecRequest) (opts []connquery.QueryOption, release func(), err error) {
	release = func() {}
	if env.Snapshot != nil {
		snap, done, err := s.snaps.lease(*env.Snapshot)
		if err != nil {
			return nil, release, err
		}
		release = done
		opts = append(opts, snap.At())
	} else if env.AtVersion != nil {
		opts = append(opts, connquery.AtVersion(*env.AtVersion))
	}
	if env.Workers != nil {
		opts = append(opts, connquery.WithWorkers(*env.Workers))
	}
	if env.NoCache {
		opts = append(opts, connquery.WithNoCache())
	}
	return opts, release, nil
}

// watchOptions is execOptions for a watch: pinning fields are rejected up
// front (Watch would reject them anyway; failing here gives the client a
// clear 400 before the stream starts), workers and no_cache pass through.
func (env *ExecRequest) watchOptions() ([]connquery.QueryOption, error) {
	if env.Snapshot != nil || env.AtVersion != nil {
		return nil, connquery.ErrPinnedWatch
	}
	var opts []connquery.QueryOption
	if env.Workers != nil {
		opts = append(opts, connquery.WithWorkers(*env.Workers))
	}
	if env.NoCache {
		opts = append(opts, connquery.WithNoCache())
	}
	return opts, nil
}
