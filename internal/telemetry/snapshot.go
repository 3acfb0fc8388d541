package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
)

// CounterSnapshot is one counter series' state.
type CounterSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugeSnapshot is one gauge series' state.
type GaugeSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// BucketSnapshot is one histogram bucket: the count of observations v with
// prevBound < v <= UpperBound. The overflow bucket has UpperBound +Inf,
// marshaled as the string "+Inf" (JSON has no infinity literal).
type BucketSnapshot struct {
	UpperBound float64 `json:"-"`
	Count      uint64  `json:"count"`
}

// MarshalJSON emits {"le": bound, "count": n} with "+Inf" for the overflow
// bucket so the output is valid JSON.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	type out struct {
		Le    any    `json:"le"`
		Count uint64 `json:"count"`
	}
	le := any(b.UpperBound)
	if b.UpperBound > maxFinite {
		le = "+Inf"
	}
	return json.Marshal(out{Le: le, Count: b.Count})
}

const maxFinite = 1.7976931348623157e308 / 2

// HistogramSnapshot is one histogram series' state.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []BucketSnapshot  `json:"buckets"`
}

// Snapshot is a point-in-time copy of a registry, ordered by
// (name, canonical labels) within each kind.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot copies the registry's current state. Safe on nil (returns an
// empty snapshot). The result is deterministic for deterministic state:
// series are sorted by name then canonical labels.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   []CounterSnapshot{},
		Gauges:     []GaugeSnapshot{},
		Histograms: []HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	series := make([]any, 0, len(r.series))
	for _, m := range r.series {
		series = append(series, m)
	}
	r.mu.Unlock()
	for _, m := range series {
		switch m := m.(type) {
		case *Counter:
			s.Counters = append(s.Counters, CounterSnapshot{
				Name: m.name, Labels: labelMap(m.labels), Value: m.Value(),
			})
		case *Gauge:
			s.Gauges = append(s.Gauges, GaugeSnapshot{
				Name: m.name, Labels: labelMap(m.labels), Value: m.Value(),
			})
		case *Histogram:
			hs := HistogramSnapshot{
				Name: m.name, Labels: labelMap(m.labels),
				Count: m.Count(), Sum: m.Sum(),
				Buckets: make([]BucketSnapshot, len(m.counts)),
			}
			for i := range m.counts {
				ub := math.Inf(1) // overflow slot
				if i < len(m.bounds) {
					ub = m.bounds[i]
				}
				hs.Buckets[i] = BucketSnapshot{UpperBound: ub, Count: m.counts[i].Load()}
			}
			s.Histograms = append(s.Histograms, hs)
		}
	}
	key := func(name string, labels map[string]string) string {
		ls := make([]Label, 0, len(labels))
		for k, v := range labels {
			ls = append(ls, Label{k, v})
		}
		return name + "\x00" + canonical(ls)
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		return key(s.Counters[i].Name, s.Counters[i].Labels) < key(s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return key(s.Gauges[i].Name, s.Gauges[i].Labels) < key(s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return key(s.Histograms[i].Name, s.Histograms[i].Labels) < key(s.Histograms[j].Name, s.Histograms[j].Labels)
	})
	return s
}

// WriteJSON writes the snapshot as indented JSON with stable key order
// (struct fields are fixed; label maps marshal with sorted keys).
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteJSON writes the registry snapshot as indented JSON with stable key
// order (struct fields are fixed; label maps marshal with sorted keys).
// Safe on nil: writes an empty snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}
