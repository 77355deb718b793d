package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"manywalks/internal/walk"
)

func testConfig(workload string) config {
	return config{workload: workload, seed: 7, workers: 2, window: time.Second, log: io.Discard, host: &hostClock{workers: 2}}
}

// A served answer that differs from the standalone computation, in any
// workload, is counted as a failed operation.
func TestCorruptedAnswerCountsAsFailed(t *testing.T) {
	s := newServe(testConfig("serve")).(*serveW)
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	gen := rand.New(rand.NewPCG(1, 2))
	light, heavy := drawQuery(gen), mixReq{heavy: true, seed: gen.Uint64()}

	cases := []struct {
		name    string
		corrupt func(tl *tally)
		good    func(tl *tally)
	}{
		{"serve light query",
			func(tl *tally) { o := s.call(light); o.query.Rounds++; s.check(light, o, tl) },
			func(tl *tally) { s.check(light, s.call(light), tl) }},
		{"serve heavy estimate",
			func(tl *tally) { o := s.call(heavy); o.est.Summary.Mean += 1e-9; s.check(heavy, o, tl) },
			func(tl *tally) { s.check(heavy, s.call(heavy), tl) }},
		{"serve late answer",
			func(tl *tally) { o := s.call(light); o.latency = requestDeadline + 1; s.check(light, o, tl) },
			func(tl *tally) { s.check(light, s.call(light), tl) }},
		{"fleet body",
			func(tl *tally) {
				body := queryWire(light.query().standalone(s.ref))
				body[len(body)-2] = '}' + 1
				checkBody(tl, "fleet", 200, body, nil, queryWire(light.query().standalone(s.ref)))
			},
			func(tl *tally) {
				want := queryWire(light.query().standalone(s.ref))
				checkBody(tl, "fleet", 200, append([]byte(nil), want...), nil, want)
			}},
		{"fleet refusal",
			func(tl *tally) { checkBody(tl, "fleet", 429, nil, nil, []byte("{}\n")) },
			func(tl *tally) { checkBody(tl, "fleet", 200, []byte("{}\n"), nil, []byte("{}\n")) }},
	}
	for _, c := range cases {
		var good, bad tally
		c.good(&good)
		c.corrupt(&bad)
		if good.attempted.Load() != 1 || good.failed.Load() != 0 {
			t.Errorf("%s: correct answer counted %d failed of %d", c.name, good.failed.Load(), good.attempted.Load())
		}
		if bad.attempted.Load() != 1 || bad.failed.Load() != 1 {
			t.Errorf("%s: corrupted answer counted %d failed of %d", c.name, bad.failed.Load(), bad.attempted.Load())
		}
	}
}

// An estimate that did not converge, truncated a trial or missed the exact
// hitting time is counted as failed.
func TestSpeedupEstimateChecks(t *testing.T) {
	s := &speedup{exactHit: 100}
	cover, hit := speedupJobs[0], speedupJobs[len(speedupJobs)-2]
	if !hit.hitting() {
		t.Fatal("job order changed: want the hitting job second to last")
	}
	est := walk.Estimate{Converged: true}
	est.Summary.N, est.Summary.Mean, est.Summary.Variance = 100, 101, 100 // SE 1
	for _, c := range []struct {
		name string
		job  estReq
		edit func(*walk.Estimate)
		fail bool
	}{
		{"converged cover", cover, func(*walk.Estimate) {}, false},
		{"not converged", cover, func(e *walk.Estimate) { e.Converged = false }, true},
		{"truncated", cover, func(e *walk.Estimate) { e.Truncated = 1 }, true},
		{"hitting within 4 SE", hit, func(*walk.Estimate) {}, false},
		{"hitting beyond 4 SE", hit, func(e *walk.Estimate) { e.Summary.Mean = 105 }, true},
	} {
		e := est
		c.edit(&e)
		var tl tally
		s.checkEstimate(&tl, c.job, e)
		if got := tl.failed.Load() == 1; got != c.fail {
			t.Errorf("%s: failed=%v, want %v", c.name, got, c.fail)
		}
	}
}

// A short fleet run prints the contract's result line: every end-to-end
// metric, nothing failed.
func TestRunPrintsEveryEndToEndMetric(t *testing.T) {
	var out bytes.Buffer
	rep, err := run([]string{"--workload", "fleet", "--seed", "3", "--seconds", "0.5", "--trace", "0"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("report %+v\n%s", rep, out.String())
	}
	for _, e := range endToEnd {
		if m, ok := rep.Metrics[e.name]; !ok || m.Unit != e.unit || !(m.Value > 0) {
			t.Errorf("metric %s: %+v", e.name, m)
		}
	}
	if len(rep.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(endToEnd))
	}
	env := strings.SplitN(out.String(), "\n", 2)[0]
	var e struct{ Env envInfo }
	if err := json.Unmarshal([]byte(env), &e); err != nil || e.Env.NProc == 0 || e.Env.GoVersion == "" || e.Env.TimerMs <= 0 {
		t.Errorf("env line %q: %+v %v", env, e.Env, err)
	}
}
