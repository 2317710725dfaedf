package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind is the instrument kind of a metric definition.
type Kind uint8

// The three instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	numKinds
)

// String returns the catalogue spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// maxDefs bounds the definitions of one kind: every Registry holds one slot
// per definition, so resolving a defined instrument is an index.
const maxDefs = 128

// Def is one entry of the metric catalogue: a name, an instrument kind, a
// unit and a one-line description. Packages declare their metrics once, as
// package-level definitions (NewCounter, NewGauge, NewHistogram), and the
// set of all definitions is the catalogue DESIGN §10.3 lists (Catalogue).
// A family (NewFamily) catalogues names built at run time: its Name is a
// pattern with <placeholders> and its instruments resolve by name.
type Def struct {
	Name   string
	Kind   Kind
	Unit   string
	Doc    string
	Family bool

	idx int // the definition's slot among its kind; unused for a family
}

// CounterDef defines a counter.
type CounterDef struct{ Def }

// GaugeDef defines a gauge.
type GaugeDef struct{ Def }

// HistogramDef defines a histogram.
type HistogramDef struct{ Def }

// Family defines a family of dynamically named instruments of one kind.
type Family struct{ Def }

// catalogue holds every definition made so far. Definitions are made by
// package initialisation; the mutex serialises them.
var catalogue struct {
	mu    sync.Mutex
	defs  []Def
	names map[string]bool
	n     [numKinds]int
}

// define adds d to the catalogue and gives it the next slot of its kind.
// A duplicate name or a full kind panics: both are programming errors in
// a package-level declaration.
func define(d Def) Def {
	catalogue.mu.Lock()
	defer catalogue.mu.Unlock()
	if catalogue.names == nil {
		catalogue.names = map[string]bool{}
	}
	if catalogue.names[d.Name] {
		panic("obs: metric " + d.Name + " defined twice")
	}
	if !d.Family {
		if catalogue.n[d.Kind] == maxDefs {
			panic(fmt.Sprintf("obs: more than %d %s definitions", maxDefs, d.Kind))
		}
		d.idx = catalogue.n[d.Kind]
		catalogue.n[d.Kind]++
	}
	catalogue.defs = append(catalogue.defs, d)
	catalogue.names[d.Name] = true
	return d
}

// NewCounter defines a counter; call it once, in a package-level var.
func NewCounter(name, unit, doc string) *CounterDef {
	return &CounterDef{define(Def{Name: name, Kind: KindCounter, Unit: unit, Doc: doc})}
}

// NewGauge defines a gauge; call it once, in a package-level var.
func NewGauge(name, unit, doc string) *GaugeDef {
	return &GaugeDef{define(Def{Name: name, Kind: KindGauge, Unit: unit, Doc: doc})}
}

// NewHistogram defines a histogram; call it once, in a package-level var.
func NewHistogram(name, unit, doc string) *HistogramDef {
	return &HistogramDef{define(Def{Name: name, Kind: KindHistogram, Unit: unit, Doc: doc})}
}

// NewFamily defines a family of instruments of kind k whose names follow
// pattern, with each run-time part written as a <placeholder>.
func NewFamily(k Kind, pattern, unit, doc string) *Family {
	return &Family{define(Def{Name: pattern, Kind: k, Unit: unit, Doc: doc, Family: true})}
}

// Expand fills the family's placeholders with parts, in order.
func (f *Family) Expand(parts ...string) string {
	var b strings.Builder
	rest := f.Name
	for _, p := range parts {
		i := strings.IndexByte(rest, '<')
		j := strings.IndexByte(rest, '>')
		if i < 0 || j < i {
			break
		}
		b.WriteString(rest[:i])
		b.WriteString(p)
		rest = rest[j+1:]
	}
	b.WriteString(rest)
	return b.String()
}

// On resolves the counter in the scope's registry: an index, no lookup by
// name. Nil (discard) on a nil scope.
func (d *CounterDef) On(s *Scope) *Counter {
	if s == nil {
		return nil
	}
	return d.In(s.reg)
}

// In resolves the counter in r; nil on a nil registry.
func (d *CounterDef) In(r *Registry) *Counter {
	if r == nil {
		return nil
	}
	return r.counters.slot(&d.Def)
}

// On resolves the gauge in the scope's registry; nil on a nil scope.
func (d *GaugeDef) On(s *Scope) *Gauge {
	if s == nil {
		return nil
	}
	return d.In(s.reg)
}

// In resolves the gauge in r; nil on a nil registry.
func (d *GaugeDef) In(r *Registry) *Gauge {
	if r == nil {
		return nil
	}
	return r.gauges.slot(&d.Def)
}

// On resolves the histogram in the scope's registry; nil on a nil scope.
func (d *HistogramDef) On(s *Scope) *Histogram {
	if s == nil {
		return nil
	}
	return d.In(s.reg)
}

// In resolves the histogram in r; nil on a nil registry.
func (d *HistogramDef) In(r *Registry) *Histogram {
	if r == nil {
		return nil
	}
	return r.histograms.slot(&d.Def)
}

// Catalogue returns a copy of every definition made so far, sorted by
// name. It is complete once the packages that report metrics have been
// initialised, that is, once they are linked into the program.
func Catalogue() []Def {
	catalogue.mu.Lock()
	out := append([]Def(nil), catalogue.defs...)
	catalogue.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
