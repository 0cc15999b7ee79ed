package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"srvsim/internal/obsv"
	"srvsim/internal/serve"
)

// clientCount is the number of closed-loop clients: two, the CPU count of
// the machine the benchmark was sized on, and never more than this host's.
var clientCount = min(2, runtime.NumCPU())

// coldCheckEvery: every this many cold results is compared with a local
// harness.Run after the window.
const coldCheckEvery = 50

// maxProblems bounds the failure messages a run keeps (all are counted).
const maxProblems = 10

// call is one request of a workload's mix.
type call struct {
	body []byte
	hit  int   // index of the pre-warmed request it repeats, or -1 when cold
	cold int64 // index in the cold stream, for cold calls
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	http *http.Client
	tr   *http.Transport
	url  string
}

func newClients(base string) []*client {
	cs := make([]*client, clientCount)
	for i := range cs {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		cs[i] = &client{http: &http.Client{Transport: tr}, tr: tr, url: base + "/v1/sims?wait=1"}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// reply is one completed submission as the client saw it.
type reply struct {
	sc         obsv.SpanContext
	start, end time.Time
	st         serve.JobStatus
}

// do submits body synchronously (?wait=1) under a fresh trace. Any status
// but 200 with a done job is an error.
func (c *client) do(body []byte) (reply, error) {
	r := reply{sc: obsv.NewTrace()}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", r.sc.Traceparent())
	r.start = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return r, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	if err != nil {
		return r, fmt.Errorf("reading the reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &r.st); err != nil {
		return r, fmt.Errorf("decoding the reply: %w", err)
	}
	if r.st.State != serve.StateDone {
		return r, fmt.Errorf("job %s ended %s: %s", r.st.ID, r.st.State, r.st.Error)
	}
	return r, nil
}

// savedCold is a cold result kept for the post-window check.
type savedCold struct {
	k      int64
	result []byte
}

// sample is one successful call.
type sample struct {
	end    float64 // completion, seconds from the phase start
	lat    float64 // client-observed latency, ms
	hit    bool    // the call repeated a pre-warmed request
	cycles int64   // simulated cycles of the result it delivered
}

// tally is what one or more clients saw during a load phase.
type tally struct {
	attempted, failed int64
	problems          []string
	samples           []sample
	saved             []savedCold
	records           []reply // traced phases only
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, p := range o.problems {
		if len(t.problems) < maxProblems {
			t.problems = append(t.problems, p)
		}
	}
	t.samples = append(t.samples, o.samples...)
	t.saved = append(t.saved, o.saved...)
	t.records = append(t.records, o.records...)
}

// cyclePair is the part of a LoopResult the cycle count needs.
type cyclePair struct{ ScalarCycles, SRVCycles int64 }

// resultCycles is the part of a ModeLoop or ModeBenchmark Result the cycle
// count needs.
type resultCycles struct {
	Loop  *cyclePair `json:"loop"`
	Bench *struct {
		Loops []cyclePair `json:"loops"`
	} `json:"bench"`
}

// simulatedCycles returns the scalar plus SRV cycles a Result reports, and
// whether it carries a loop or benchmark payload at all.
func simulatedCycles(result []byte) (int64, bool) {
	var rc resultCycles
	if err := json.Unmarshal(result, &rc); err != nil {
		return 0, false
	}
	switch {
	case rc.Loop != nil:
		return rc.Loop.ScalarCycles + rc.Loop.SRVCycles, true
	case rc.Bench != nil:
		var n int64
		for _, l := range rc.Bench.Loops {
			n += l.ScalarCycles + l.SRVCycles
		}
		return n, true
	}
	return 0, false
}

// phase is one closed-loop load phase: clients draw call indices from next
// until the index reaches limit (when limit > 0) or until passes.
type phase struct {
	clients   []*client
	mix       func(i int64) call
	next      *atomic.Int64
	limit     int64
	until     time.Time
	pre       [][]byte // pre-warmed results a hit must equal
	preCycles []int64  // their simulated cycles
	record    bool     // keep every reply for the trace join
}

// run drives the phase to its end and returns the merged tally.
func (p phase) run() tally {
	start := time.Now()
	parts := make([]tally, len(p.clients))
	var wg sync.WaitGroup
	wg.Add(len(p.clients))
	for ci, c := range p.clients {
		go func(t *tally, c *client) {
			defer wg.Done()
			for p.until.IsZero() || time.Now().Before(p.until) {
				i := p.next.Add(1) - 1
				if p.limit > 0 && i >= p.limit {
					return
				}
				p.one(t, c, p.mix(i), start)
			}
		}(&parts[ci], c)
	}
	wg.Wait()
	var all tally
	for i := range parts {
		all.merge(&parts[i])
	}
	return all
}

// one issues a call and checks its reply.
func (p phase) one(t *tally, c *client, cl call, start time.Time) {
	t.attempted++
	r, err := c.do(cl.body)
	if err != nil {
		t.fail("%v", err)
		return
	}
	var cycles int64
	if cl.hit >= 0 {
		if !bytes.Equal(r.st.Result, p.pre[cl.hit]) {
			t.fail("hit on pre-warmed request %d differs from its pre-warm result", cl.hit)
			return
		}
		cycles = p.preCycles[cl.hit]
	} else {
		var ok bool
		if cycles, ok = simulatedCycles(r.st.Result); !ok {
			t.fail("cold request %d: result carries no loop payload", cl.cold)
			return
		}
		if cl.cold%coldCheckEvery == 0 {
			t.saved = append(t.saved, savedCold{k: cl.cold, result: r.st.Result})
		}
	}
	t.samples = append(t.samples, sample{end: r.end.Sub(start).Seconds(), lat: ms(r.end.Sub(r.start)), hit: cl.hit >= 0, cycles: cycles})
	if p.record {
		t.records = append(t.records, r)
	}
}
