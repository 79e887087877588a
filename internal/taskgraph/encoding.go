package taskgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/simtime"
)

// graphJSON is the stable on-disk representation of a Graph.
type graphJSON struct {
	Name  string     `json:"name"`
	Tasks []taskJSON `json:"tasks"`
	Deps  []depJSON  `json:"deps,omitempty"`
	Rec   []TaskID   `json:"rec_sequence,omitempty"`
}

type taskJSON struct {
	ID     TaskID  `json:"id"`
	Name   string  `json:"name,omitempty"`
	ExecMs float64 `json:"exec_ms"`
}

type depJSON struct {
	From TaskID `json:"from"`
	To   TaskID `json:"to"`
}

// MarshalJSON encodes the graph with millisecond execution times, matching
// the units used throughout the paper. The encoding is canonical (sorted
// dependencies, explicit reconfiguration sequence) and compact with HTML
// escaping, so it equals json.Marshal's output for the graph. It is
// computed once per graph; each call returns a fresh copy.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return bytes.Clone(g.canonical()), nil
}

// encode builds the canonical encoding behind MarshalJSON.
func (g *Graph) encode() ([]byte, error) {
	out := graphJSON{Name: g.name, Rec: g.RecSequenceIDs()}
	for _, t := range g.tasks {
		out.Tasks = append(out.Tasks, taskJSON{ID: t.ID, Name: t.Name, ExecMs: t.Exec.Ms()})
	}
	for i, succs := range g.succs {
		for _, s := range succs {
			out.Deps = append(out.Deps, depJSON{From: g.tasks[i].ID, To: g.tasks[s].ID})
		}
	}
	sort.Slice(out.Deps, func(a, b int) bool {
		if out.Deps[a].From != out.Deps[b].From {
			return out.Deps[a].From < out.Deps[b].From
		}
		return out.Deps[a].To < out.Deps[b].To
	})
	return json.Marshal(out)
}

// FromJSON decodes a graph previously encoded with MarshalJSON (or written
// by hand in the same schema), validating it like a Builder would.
func FromJSON(data []byte) (*Graph, error) {
	var in graphJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("taskgraph: decode: %v", err)
	}
	b := NewBuilder(in.Name)
	for _, t := range in.Tasks {
		exec, err := msToTime(t.ExecMs)
		if err != nil {
			return nil, fmt.Errorf("taskgraph %q task %d: %v", in.Name, t.ID, err)
		}
		b.AddTask(t.ID, t.Name, exec)
	}
	for _, d := range in.Deps {
		b.AddDep(d.From, d.To)
	}
	if len(in.Rec) > 0 {
		b.SetRecSequence(in.Rec...)
	}
	return b.Build()
}

func msToTime(ms float64) (simtime.Time, error) {
	if ms <= 0 {
		return 0, fmt.Errorf("non-positive exec_ms %v", ms)
	}
	return simtime.FromMs(ms), nil
}

// DOT renders the graph in Graphviz dot syntax, labeling nodes with their
// execution times, in the style of the paper's figures.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.name)
	b.WriteString("  rankdir=TB;\n  node [shape=circle];\n")
	for _, t := range g.tasks {
		label := fmt.Sprintf("%d\\n%v", t.ID, t.Exec)
		if t.Name != "" {
			label = fmt.Sprintf("%d %s\\n%v", t.ID, t.Name, t.Exec)
		}
		fmt.Fprintf(&b, "  t%d [label=\"%s\"];\n", t.ID, label)
	}
	for i, succs := range g.succs {
		for _, s := range succs {
			fmt.Fprintf(&b, "  t%d -> t%d;\n", g.tasks[i].ID, g.tasks[s].ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
