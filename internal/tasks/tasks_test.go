package tasks

import (
	"slices"
	"testing"

	"roundtriprank/internal/datasets"
)

func smallBibNet(t *testing.T) *datasets.BibNet {
	t.Helper()
	net, err := datasets.GenerateBibNet(datasets.SmallBibNetConfig())
	if err != nil {
		t.Fatalf("GenerateBibNet: %v", err)
	}
	return net
}

func smallQLog(t *testing.T) *datasets.QLog {
	t.Helper()
	q, err := datasets.GenerateQLog(datasets.SmallQLogConfig())
	if err != nil {
		t.Fatalf("GenerateQLog: %v", err)
	}
	return q
}

func TestTaskStrings(t *testing.T) {
	if TaskAuthor.String() != "Task 1 (Author)" || TaskEquivalentSearch.String() != "Task 4 (Equivalent search)" {
		t.Errorf("task labels wrong: %q %q", TaskAuthor.String(), TaskEquivalentSearch.String())
	}
	if Task(99).String() == "" {
		t.Errorf("unknown task should still render")
	}
	if len(AllTasks()) != 4 || len(BibNetTasks()) != 2 || len(QLogTasks()) != 2 {
		t.Errorf("task list sizes wrong")
	}
}

func TestSampleBibNetAuthorTask(t *testing.T) {
	net := smallBibNet(t)
	instances, err := SampleBibNet(net, TaskAuthor, 25, 7)
	if err != nil {
		t.Fatalf("SampleBibNet: %v", err)
	}
	if len(instances) != 25 {
		t.Fatalf("got %d instances, want 25", len(instances))
	}
	for _, inst := range instances {
		if net.Graph.Type(inst.QueryNode) != datasets.TypePaper {
			t.Fatalf("query should be a paper")
		}
		if inst.TargetType != datasets.TypeAuthor {
			t.Fatalf("target type should be author")
		}
		if len(inst.GroundTruth) == 0 {
			t.Fatalf("empty ground truth")
		}
		for truth := range inst.GroundTruth {
			if net.Graph.Type(truth) != datasets.TypeAuthor {
				t.Fatalf("ground truth %d is not an author", truth)
			}
			// Direct edges removed in the instance view.
			if cols, _ := inst.View.NewRows().OutRow(inst.QueryNode); slices.Contains(cols, truth) {
				t.Fatalf("query-truth edge still visible")
			}
			// But present in the underlying graph.
			if !net.Graph.HasEdge(inst.QueryNode, truth) {
				t.Fatalf("underlying association missing")
			}
		}
		if len(inst.RemovedEdges) == 0 {
			t.Fatalf("expected removed edges")
		}
	}
	// Determinism.
	again, _ := SampleBibNet(net, TaskAuthor, 25, 7)
	for i := range again {
		if again[i].QueryNode != instances[i].QueryNode {
			t.Fatalf("sampling is not deterministic")
		}
	}
	// Different seed gives a different sample (with overwhelming probability).
	other, _ := SampleBibNet(net, TaskAuthor, 25, 8)
	same := 0
	for i := range other {
		if other[i].QueryNode == instances[i].QueryNode {
			same++
		}
	}
	if same == len(other) {
		t.Errorf("different seeds should give different query orders")
	}
}

func TestSampleBibNetVenueTask(t *testing.T) {
	net := smallBibNet(t)
	instances, err := SampleBibNet(net, TaskVenue, 10, 3)
	if err != nil {
		t.Fatalf("SampleBibNet: %v", err)
	}
	for _, inst := range instances {
		if len(inst.GroundTruth) != 1 {
			t.Fatalf("venue task should have exactly one ground-truth node")
		}
		if inst.TargetType != datasets.TypeVenue {
			t.Fatalf("target type should be venue")
		}
	}
}

func TestSampleBibNetErrors(t *testing.T) {
	net := smallBibNet(t)
	if _, err := SampleBibNet(net, TaskRelevantURL, 5, 1); err == nil {
		t.Errorf("QLog task on BibNet should error")
	}
	if _, err := SampleBibNet(net, TaskAuthor, 0, 1); err == nil {
		t.Errorf("zero query count should error")
	}
	// Asking for more queries than papers clips to the eligible set.
	many, err := SampleBibNet(net, TaskVenue, 10_000_000, 1)
	if err != nil {
		t.Fatalf("SampleBibNet: %v", err)
	}
	if len(many) != len(net.Papers) {
		t.Errorf("clipped sample size = %d, want %d", len(many), len(net.Papers))
	}
}

func TestSampleQLogTasks(t *testing.T) {
	qlog := smallQLog(t)
	urls, err := SampleQLog(qlog, TaskRelevantURL, 20, 5)
	if err != nil {
		t.Fatalf("SampleQLog: %v", err)
	}
	for _, inst := range urls {
		if inst.TargetType != datasets.TypeURL || len(inst.GroundTruth) != 1 {
			t.Fatalf("relevant-URL instance malformed")
		}
		for truth := range inst.GroundTruth {
			if !qlog.Graph.HasEdge(inst.QueryNode, truth) {
				t.Fatalf("ground-truth URL was never clicked by the query phrase")
			}
		}
		if len(inst.RemovedEdges) != 2 {
			t.Fatalf("expected both directions of the click edge removed, got %d", len(inst.RemovedEdges))
		}
	}

	equiv, err := SampleQLog(qlog, TaskEquivalentSearch, 20, 5)
	if err != nil {
		t.Fatalf("SampleQLog: %v", err)
	}
	for _, inst := range equiv {
		if inst.TargetType != datasets.TypePhrase || len(inst.GroundTruth) == 0 {
			t.Fatalf("equivalent-search instance malformed")
		}
		qKey := datasets.NormalizePhrase(qlog.Graph.Label(inst.QueryNode))
		for truth := range inst.GroundTruth {
			if datasets.NormalizePhrase(qlog.Graph.Label(truth)) != qKey {
				t.Fatalf("ground-truth phrase is not equivalent to the query")
			}
		}
	}

	if _, err := SampleQLog(qlog, TaskAuthor, 5, 1); err == nil {
		t.Errorf("BibNet task on QLog should error")
	}
	if _, err := SampleQLog(qlog, TaskRelevantURL, 0, 1); err == nil {
		t.Errorf("zero query count should error")
	}
}
