// Package tasks implements the four evaluation tasks of Sect. VI-A and their
// automatic ground-truth construction: for each sampled query the known
// association (authors of a paper, venue of a paper, a clicked URL of a
// phrase, equivalent phrasings of a concept) is reserved as ground truth and
// the direct edges between the query and the ground-truth nodes are removed
// from the view the measures see, so the evaluation tests whether a proximity
// measure can re-discover the association.
package tasks

import (
	"fmt"
	"math/rand"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// Task identifies one of the paper's four ranking tasks.
type Task int

const (
	// TaskAuthor (Task 1): given a paper, find its authors. BibNet.
	TaskAuthor Task = iota
	// TaskVenue (Task 2): given a paper, find its venue. BibNet.
	TaskVenue
	// TaskRelevantURL (Task 3): given a phrase, find a clicked URL. QLog.
	TaskRelevantURL
	// TaskEquivalentSearch (Task 4): given a phrase, find equivalent phrases.
	TaskEquivalentSearch
)

// String returns the paper's task label.
func (t Task) String() string {
	switch t {
	case TaskAuthor:
		return "Task 1 (Author)"
	case TaskVenue:
		return "Task 2 (Venue)"
	case TaskRelevantURL:
		return "Task 3 (Relevant URL)"
	case TaskEquivalentSearch:
		return "Task 4 (Equivalent search)"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// BibNetTasks lists the tasks evaluated on the bibliographic network.
func BibNetTasks() []Task { return []Task{TaskAuthor, TaskVenue} }

// QLogTasks lists the tasks evaluated on the query log.
func QLogTasks() []Task { return []Task{TaskRelevantURL, TaskEquivalentSearch} }

// AllTasks lists all four tasks in paper order.
func AllTasks() []Task {
	return []Task{TaskAuthor, TaskVenue, TaskRelevantURL, TaskEquivalentSearch}
}

// Instance is one evaluation query: the query distribution, the reserved
// ground truth, the node type rankings are filtered to, and the edge-masked
// view every measure scores on.
type Instance struct {
	Task        Task
	QueryNode   graph.NodeID
	Query       walk.Query
	GroundTruth map[graph.NodeID]bool
	TargetType  graph.Type
	View        graph.View
	// RemovedEdges lists the directed edges hidden from the view.
	RemovedEdges []graph.EdgeKey
}

// SampleBibNet samples up to n task instances from a bibliographic network.
// Queries are papers chosen uniformly at random among those with non-empty
// ground truth; the same seed yields the same queries.
func SampleBibNet(net *datasets.BibNet, task Task, n int, seed int64) ([]Instance, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tasks: query count must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	var eligible []graph.NodeID
	for _, p := range net.Papers {
		switch task {
		case TaskAuthor:
			if len(net.AuthorsOf[p]) > 0 {
				eligible = append(eligible, p)
			}
		case TaskVenue:
			if _, ok := net.VenueOf[p]; ok {
				eligible = append(eligible, p)
			}
		default:
			return nil, fmt.Errorf("tasks: %v is not a BibNet task", task)
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("tasks: no eligible queries for %v", task)
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	if n > len(eligible) {
		n = len(eligible)
	}
	out := make([]Instance, 0, n)
	for _, p := range eligible[:n] {
		var truth []graph.NodeID
		var targetType graph.Type
		switch task {
		case TaskAuthor:
			truth = net.AuthorsOf[p]
			targetType = datasets.TypeAuthor
		case TaskVenue:
			truth = []graph.NodeID{net.VenueOf[p]}
			targetType = datasets.TypeVenue
		}
		out = append(out, newInstance(net.Graph, task, p, truth, targetType))
	}
	return out, nil
}

// SampleQLog samples up to n task instances from a query log.
func SampleQLog(qlog *datasets.QLog, task Task, n int, seed int64) ([]Instance, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tasks: query count must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	var eligible []graph.NodeID
	for _, p := range qlog.Phrases {
		switch task {
		case TaskRelevantURL:
			if len(qlog.ClickedURLs[p]) > 0 {
				eligible = append(eligible, p)
			}
		case TaskEquivalentSearch:
			if len(qlog.PhrasesOfConcept[qlog.ConceptOf[p]]) > 1 {
				eligible = append(eligible, p)
			}
		default:
			return nil, fmt.Errorf("tasks: %v is not a QLog task", task)
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("tasks: no eligible queries for %v", task)
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	if n > len(eligible) {
		n = len(eligible)
	}
	out := make([]Instance, 0, n)
	for _, p := range eligible[:n] {
		var truth []graph.NodeID
		var targetType graph.Type
		switch task {
		case TaskRelevantURL:
			urls := qlog.ClickedURLs[p]
			truth = []graph.NodeID{urls[rng.Intn(len(urls))]}
			targetType = datasets.TypeURL
		case TaskEquivalentSearch:
			for _, other := range qlog.PhrasesOfConcept[qlog.ConceptOf[p]] {
				if other != p {
					truth = append(truth, other)
				}
			}
			targetType = datasets.TypePhrase
		}
		out = append(out, newInstance(qlog.Graph, task, p, truth, targetType))
	}
	return out, nil
}

// newInstance builds an Instance, removing all direct edges between the query
// node and each ground-truth node in both directions.
func newInstance(g *graph.Graph, task Task, query graph.NodeID, truth []graph.NodeID, targetType graph.Type) Instance {
	truthSet := make(map[graph.NodeID]bool, len(truth))
	var removed []graph.EdgeKey
	for _, tn := range truth {
		truthSet[tn] = true
		if g.HasEdge(query, tn) {
			removed = append(removed, graph.EdgeKey{From: query, To: tn})
		}
		if g.HasEdge(tn, query) {
			removed = append(removed, graph.EdgeKey{From: tn, To: query})
		}
	}
	var view graph.View = g
	if len(removed) > 0 {
		view = g.Without(removed)
	}
	return Instance{
		Task:         task,
		QueryNode:    query,
		Query:        walk.SingleNode(query),
		GroundTruth:  truthSet,
		TargetType:   targetType,
		View:         view,
		RemovedEdges: removed,
	}
}
