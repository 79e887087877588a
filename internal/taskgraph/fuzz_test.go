package taskgraph

import (
	"encoding/json"
	"testing"
)

// FuzzFromJSON ensures arbitrary input never panics the graph decoder and
// that everything it accepts is a valid graph that round-trips.
func FuzzFromJSON(f *testing.F) {
	seeds := []string{
		`{"name":"g","tasks":[{"id":1,"exec_ms":1}]}`,
		`{"name":"g","tasks":[{"id":1,"exec_ms":2.5},{"id":2,"exec_ms":4}],
		  "deps":[{"from":1,"to":2}]}`,
		`{"name":"g","tasks":[{"id":1,"exec_ms":1},{"id":2,"exec_ms":1}],
		  "deps":[{"from":1,"to":2},{"from":2,"to":1}]}`,
		`{"name":"g","tasks":[{"id":1,"exec_ms":1}],"rec_sequence":[1]}`,
		`{}`, `[]`, `null`, `{"tasks":`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := FromJSON(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted graphs must satisfy the package invariants.
		if g.NumTasks() == 0 {
			t.Fatal("accepted empty graph")
		}
		order, _ := topoOrder(g)
		if len(order) != g.NumTasks() {
			t.Fatalf("topological order incomplete: %d of %d", len(order), g.NumTasks())
		}
		pos := map[int]int{}
		for k, i := range g.RecSequence() {
			pos[i] = k
		}
		for i := 0; i < g.NumTasks(); i++ {
			if g.Task(i).Exec <= 0 {
				t.Fatal("accepted non-positive exec time")
			}
			for _, p := range g.Preds(i) {
				if pos[p] > pos[i] {
					t.Fatal("rec sequence not topological")
				}
			}
		}
		// And survive a round trip.
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("marshal of accepted graph failed: %v", err)
		}
		if _, err := FromJSON(out); err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, out)
		}
	})
}
