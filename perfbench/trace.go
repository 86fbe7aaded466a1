package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls. The layer is the name's prefix up to
// the first dot ("core.run" belongs to core).
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	id, parent int           // parent 0: a root span
	job        string        // spans of one job or sweep share it
	lane       int           // client or pool slot, a trace row
}

// tracer keeps spans in memory; they are written once, at the end.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// add records a finished span and returns its id for children to name
// as their parent.
func (t *tracer) add(name string, start, end time.Duration, parent int, job string, lane int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, start: start, end: end, id: id, parent: parent, job: job, lane: lane})
	return id
}

// reserve allocates the id of a span whose children finish before it
// does; fill completes it.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

func (t *tracer) fill(id int, name string, start, end time.Duration, parent int, job string, lane int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{name: name, start: start, end: end, id: id, parent: parent, job: job, lane: lane}
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its children cover (the union of their intervals, clipped to the
// span, since pool children overlap).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.id == 0 {
			continue
		}
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered time.Duration
		cur, curEnd := s.start, s.start
		for _, k := range kids {
			ks, ke := max(k.start, s.start), min(k.end, s.end)
			if ke <= ks {
				continue
			}
			if ks > curEnd {
				covered += curEnd - cur
				cur, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		covered += curEnd - cur
		out[layerOf(s.name)] += s.end - s.start - covered
	}
	return out
}

// writeTrace writes the spans as Chrome-trace JSON (the format the
// simulator's own obs traces use), loadable in Perfetto: one complete
// ("X") event per span, one thread row per lane, with the parent span
// and job id as arguments and the host fingerprint in otherData.
func writeTrace(path string, t *tracer, host hostInfo, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	fmt.Fprintf(w, `{"traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":1,"args":{"name":%q}}`, "perfbench "+workload)
	for _, s := range spans {
		if s.id == 0 {
			continue
		}
		name, _ := json.Marshal(s.name)
		job, _ := json.Marshal(s.job)
		fmt.Fprintf(w, `,{"name":%s,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"id":%d,"parent":%d,"job":%s}}`,
			name, layerOf(s.name), float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.lane, s.id, s.parent, job)
	}
	meta, _ := json.Marshal(struct {
		Host     hostInfo `json:"host"`
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
	}{host, workload, seed})
	fmt.Fprintf(w, `],"displayTimeUnit":"ms","otherData":%s}`+"\n", meta)
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
