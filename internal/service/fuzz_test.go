package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"greednet/internal/cliutil"
	"greednet/internal/game"
)

// FuzzDecodeUpdate throws arbitrary bytes at the update decoder and pins
// the boundary invariant: whatever arrives, either the request is
// rejected as malformed, or the decoded rate satisfies the same cliutil
// validation the CLIs use — positive and finite, never NaN/Inf.  The
// handler itself must always answer with a well-formed JSON body and a
// known status code (no panic escapes the containment wrapper).
func FuzzDecodeUpdate(f *testing.F) {
	f.Add([]byte(`{"client":"a","rate":0.25}`))
	f.Add([]byte(`{"client":"a","rate":0.1,"utility":"linear:1,4"}`))
	f.Add([]byte(`{"client":"a","rate":-1}`))
	f.Add([]byte(`{"client":"a","rate":1e999}`))
	f.Add([]byte(`{"client":"a","rate":NaN}`))
	f.Add([]byte(`{"client":"a","leave":true}`))
	f.Add([]byte(`{"client":"","rate":0.5}`))
	f.Add([]byte(`{"client":"a","rate":0.5,"utility":"log:2,"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest("POST", "/v1/update", bytes.NewReader(data))
		dec, err := decodeUpdate(req)
		if err == nil && !dec.Leave {
			if cerr := cliutil.CheckRate(dec.Rate); cerr != nil {
				t.Fatalf("decoder admitted invalid rate %v (%v) from %q", dec.Rate, cerr, data)
			}
			if math.IsNaN(dec.Rate) || math.IsInf(dec.Rate, 0) {
				t.Fatalf("decoder admitted non-finite rate %v from %q", dec.Rate, data)
			}
			if dec.Utility != "" {
				if _, uerr := cliutil.ParseUtility(dec.Utility); uerr != nil {
					t.Fatalf("decoder admitted unparseable utility %q from %q", dec.Utility, data)
				}
			}
			if (dec.u == nil) != (dec.Utility == "") || (dec.u != nil && dec.spec != game.UtilitySpec(dec.u)) {
				t.Fatalf("decoder parsed utility %q as %v with spec %q", dec.Utility, dec.u, dec.spec)
			}
		}

		// End to end: the handler always answers typed JSON.
		s := New(Options{})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/update", bytes.NewReader(data)))
		switch rec.Code {
		case http.StatusOK:
			var resp UpdateResponse
			if jerr := json.Unmarshal(rec.Body.Bytes(), &resp); jerr != nil {
				t.Fatalf("200 with undecodable body %q", rec.Body.String())
			}
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var rej Rejection
			if jerr := json.Unmarshal(rec.Body.Bytes(), &rej); jerr != nil {
				t.Fatalf("%d with undecodable body %q", rec.Code, rec.Body.String())
			}
			switch rej.Reason {
			case ReasonAdmission, ReasonOverload, ReasonDeadline, ReasonMalformed, ReasonDraining:
			default:
				t.Fatalf("%d with unknown reason %q", rec.Code, rej.Reason)
			}
		default:
			t.Fatalf("unexpected status %d for %q", rec.Code, data)
		}
	})
}
