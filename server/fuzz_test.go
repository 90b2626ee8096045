package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"connquery"
)

// kindAliases maps the alternate spellings ToRequest accepts onto the Kind
// of the request they build.
var kindAliases = map[string]string{
	"range":      "ObstructedRange",
	"distance":   "ObstructedDist",
	"trajectory": "TrajectoryCONN",
}

// removedEnvelopes carry fields and kinds that are not part of the wire
// surface: the ablation block, the sampling baseline's kind and its field.
var removedEnvelopes = []string{
	`{"kind":"CONN","seg":{"a":{"x":0,"y":0},"b":{"x":100,"y":0}},"tuning":{"disable_lemma7":true}}`,
	`{"kind":"NaiveCONN","seg":{"a":{"x":0,"y":0},"b":{"x":100,"y":0}},"samples":16}`,
	`{"kind":"NaiveCONN","seg":{"a":{"x":0,"y":0},"b":{"x":100,"y":0}}}`,
}

// decodeEnvelope runs data through the /v1/exec decode path: the strict
// body decoder, then ToRequest.
func decodeEnvelope(data []byte) (*ExecRequest, connquery.Request, error) {
	var env ExecRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/exec", bytes.NewReader(data))
	if err := decodeBody(httptest.NewRecorder(), r, &env); err != nil {
		return nil, nil, err
	}
	req, err := env.ToRequest()
	if err != nil {
		return nil, nil, err
	}
	return &env, req, nil
}

// FuzzWireEnvelope feeds arbitrary bytes through the /v1/exec decode path,
// the option translation and Exec on a small database. Nothing may panic,
// and an accepted envelope must build a request of the kind it names. The
// removed envelopes are seeds too, and must be rejected before execution.
func FuzzWireEnvelope(f *testing.F) {
	for _, env := range removedEnvelopes {
		if _, req, err := decodeEnvelope([]byte(env)); err == nil {
			f.Fatalf("removed envelope %s accepted as a %s request", env, req.Kind())
		}
	}
	for _, seed := range append([]string{
		`{"kind":"CONN","seg":{"a":{"x":0,"y":0},"b":{"x":100,"y":0}}}`,
		`{"kind":"COkNN","seg":{"a":{"x":0,"y":0},"b":{"x":100,"y":0}},"k":2,"no_cache":true}`,
		`{"kind":" onn ","p":{"x":0,"y":0},"k":1}`,
		`{"kind":"range","center":{"x":0,"y":0},"radius":70}`,
		`{"kind":"distance","a":{"x":0,"y":0},"b":{"x":60,"y":40}}`,
		`{"kind":"trajectory","waypoints":[{"x":0,"y":0},{"x":100,"y":0}]}`,
		`{"kind":"CONNBatch","segs":[{"a":{"x":0,"y":0},"b":{"x":100,"y":0}}],"workers":2}`,
		`{"kind":"ClosestPair","queries":[{"x":0,"y":0}],"at_version":1}`,
		`{"kind":"CONN","snapshot":7}`,
		`{"kind":""}`,
		`[]`,
	}, removedEnvelopes...) {
		f.Add([]byte(seed))
	}
	db, err := connquery.Open(
		[]connquery.Point{connquery.Pt(10, 40), connquery.Pt(90, 40), connquery.Pt(50, 85)},
		[]connquery.Rect{connquery.R(45, 10, 55, 70), connquery.R(20, 60, 30, 70)},
	)
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{DB: db})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)

	f.Fuzz(func(t *testing.T, data []byte) {
		env, req, err := decodeEnvelope(data)
		if err != nil {
			return
		}
		named := strings.TrimSpace(env.Kind)
		if alias, ok := kindAliases[strings.ToLower(named)]; ok {
			named = alias
		}
		if !strings.EqualFold(req.Kind(), named) {
			t.Fatalf("envelope kind %q built a %s request", env.Kind, req.Kind())
		}
		opts, release, err := s.execOptions(env)
		defer release()
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if ans, err := db.Exec(ctx, req, opts...); err == nil {
			EncodeAnswer(ans)
		}
	})
}
