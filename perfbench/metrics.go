package main

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"time"
)

// metricName is the name grammar the result line promises: letters,
// digits, '_', '.', '-', starting with a letter or digit, at most 64 long.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(s string) bool { return metricName.MatchString(s) }

// ratio is a share reported together with the count it is a share of, so a
// reader can tell 1 of 2 from 5000 of 10000.
type ratio struct {
	num, base float64
	of        string // what the base counts, e.g. "sends"
}

// value reports num/base, and 0 when the base is empty (the layer did no
// work on this workload).
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

func (r ratio) String() string {
	return fmt.Sprintf("%s of %s %s", plain(r.num), plain(r.base), r.of)
}

// plain formats x in full without an exponent.
func plain(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

// expectedOps is the number of SLO completions a workload config implies:
// every rank completes one per step, except the rpc server, which only
// serves.
func expectedOps(pattern string, steps, ranks int) int {
	if pattern == "rpc" {
		return steps * (ranks - 1)
	}
	return steps * ranks
}

// span is one timed call into a layer. Parent indexes the enclosing span
// in the same slice, -1 for a root.
type span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent"`
}

// selfTime is span i's duration minus the part of it that its children
// cover; overlapping children are counted once.
func selfTime(spans []span, i int) time.Duration {
	s := spans[i]
	type iv struct{ a, b time.Time }
	var kids []iv
	for _, c := range spans {
		if c.Parent != i {
			continue
		}
		a, b := c.Start, c.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if a.Before(b) {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(x, y int) bool { return kids[x].a.Before(kids[y].a) })
	self := s.End.Sub(s.Start)
	var end time.Time
	for _, k := range kids {
		if k.a.Before(end) {
			k.a = end
		}
		if k.a.Before(k.b) {
			self -= k.b.Sub(k.a)
			end = k.b
		}
	}
	return self
}

// tracer records spans in memory; they are written out once the run ends.
type tracer struct{ spans []span }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Now(), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Now() }

// selfTimes collects the self time of every span called name.
func (t *tracer) selfTimes(name string) []float64 {
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(selfTime(t.spans, i)))
		}
	}
	return out
}

// median of xs (which it sorts), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
