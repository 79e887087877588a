package taskgraph

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func TestJSONRoundTrip(t *testing.T) {
	g := ForkJoin("fig3-tg2", 4, ms(12), []simtime.Time{ms(8), ms(6)}, ms(6), true)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatalf("FromJSON: %v\njson: %s", err, data)
	}
	if back.Name() != g.Name() || back.NumTasks() != g.NumTasks() {
		t.Fatalf("round trip changed shape: %v vs %v", back, g)
	}
	for i := 0; i < g.NumTasks(); i++ {
		if back.Task(i) != g.Task(i) {
			t.Errorf("task %d: %+v vs %+v", i, back.Task(i), g.Task(i))
		}
		if len(back.Preds(i)) != len(g.Preds(i)) {
			t.Errorf("task %d preds differ", i)
		}
	}
	r1, r2 := g.RecSequenceIDs(), back.RecSequenceIDs()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("rec sequence differs: %v vs %v", r1, r2)
		}
	}
}

func TestJSONRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		g, err := RandomLayered("r", RandomConfig{
			Tasks: 1 + rng.Intn(10), MaxWidth: 3, EdgeProb: 0.4,
			MinExec: ms(0.5), MaxExec: ms(8),
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		back, err := FromJSON(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		data2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Fatalf("trial %d: not stable:\n%s\n%s", trial, data, data2)
		}
	}
}

func TestFromJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "{"},
		{"no tasks", `{"name":"g","tasks":[]}`},
		{"bad exec", `{"name":"g","tasks":[{"id":1,"exec_ms":0}]}`},
		{"negative exec", `{"name":"g","tasks":[{"id":1,"exec_ms":-2}]}`},
		{"cycle", `{"name":"g","tasks":[{"id":1,"exec_ms":1},{"id":2,"exec_ms":1}],
			"deps":[{"from":1,"to":2},{"from":2,"to":1}]}`},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromJSON([]byte(tt.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestDOT(t *testing.T) {
	g := Chain("c", 1, ms(2.5), ms(4))
	dot := g.DOT()
	for _, frag := range []string{`digraph "c"`, "t1 ->", "t2", "2.5 ms"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
}

// TestMarshalJSONMatchesEncodingJSON: MarshalJSON returns its memoized
// canonical bytes directly, while json.Marshal compacts and HTML-escapes
// a Marshaler's output. Result-store keys frame MarshalJSON's bytes, so
// the two must agree even on names json.Marshal escapes.
func TestMarshalJSONMatchesEncodingJSON(t *testing.T) {
	for _, name := range []string{"jpeg", "a<b>&c", "line\u2028sep\u2029", "quote\"tab\t"} {
		b := NewBuilder(name).
			AddTask(1, name, ms(2)).
			AddTask(2, "<sink>", ms(1.25)).
			AddDep(1, 2)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		viaJSON, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if string(direct) != string(viaJSON) {
			t.Errorf("%q: MarshalJSON %s, json.Marshal %s", name, direct, viaJSON)
		}
		direct[0] = 'X' // a caller's copy: the memoized bytes must not change
		if again, _ := g.MarshalJSON(); string(again) != string(viaJSON) {
			t.Errorf("%q: modifying a returned encoding changed the next one: %s", name, again)
		}
	}
}
