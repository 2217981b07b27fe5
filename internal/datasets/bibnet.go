package datasets

import (
	"fmt"
	"math/rand"
	"sort"

	"roundtriprank/internal/graph"
)

// BibNetConfig controls the synthetic bibliographic network generator.
type BibNetConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Papers is the number of paper nodes.
	Papers int
	// Authors is the size of the author population.
	Authors int
	// ExtraTermsPerTopic adds generic vocabulary terms per topic beyond the
	// named characteristic terms.
	ExtraTermsPerTopic int
	// TermsPerPaper is the number of term edges per paper.
	TermsPerPaper int
	// MaxAuthorsPerPaper caps the authors per paper (at least one).
	MaxAuthorsPerPaper int
	// CitationsPerPaper is the expected number of outgoing citations.
	CitationsPerPaper int
	// BroadVenueBias is the probability that a paper is published in one of
	// its area's broad venues rather than its topic's specific venue. Broad
	// venues therefore accumulate papers from every topic (important but not
	// specific), while specific venues stay focused.
	BroadVenueBias float64
}

// DefaultBibNetConfig returns the effectiveness-scale configuration used by
// the Fig. 5–10 reproductions: roughly the size of the paper's hand-picked
// 28-venue subgraph (about 20k nodes, 250k directed edges).
func DefaultBibNetConfig() BibNetConfig {
	return BibNetConfig{
		Seed:               1,
		Papers:             9000,
		Authors:            5200,
		ExtraTermsPerTopic: 28,
		TermsPerPaper:      9,
		MaxAuthorsPerPaper: 4,
		CitationsPerPaper:  6,
		BroadVenueBias:     0.62,
	}
}

// SmallBibNetConfig returns a small configuration for unit tests.
func SmallBibNetConfig() BibNetConfig {
	cfg := DefaultBibNetConfig()
	cfg.Papers = 400
	cfg.Authors = 250
	cfg.ExtraTermsPerTopic = 8
	cfg.TermsPerPaper = 6
	cfg.CitationsPerPaper = 3
	return cfg
}

// ScaledBibNetConfig scales the default configuration by the given factor,
// used by the efficiency and scalability experiments (Fig. 11–13).
func ScaledBibNetConfig(factor float64) BibNetConfig {
	cfg := DefaultBibNetConfig()
	cfg.Papers = int(float64(cfg.Papers) * factor)
	cfg.Authors = int(float64(cfg.Authors) * factor)
	if cfg.Papers < 50 {
		cfg.Papers = 50
	}
	if cfg.Authors < 30 {
		cfg.Authors = 30
	}
	return cfg
}

// BibNet is a generated bibliographic network together with the metadata the
// evaluation tasks need.
type BibNet struct {
	Graph *graph.Graph
	// Papers, Authors, Terms, Venues list the node IDs of each type in
	// generation order (papers are ordered by publication time, which the
	// snapshot builder relies on).
	Papers  []graph.NodeID
	Authors []graph.NodeID
	Terms   []graph.NodeID
	Venues  []graph.NodeID
	// AuthorsOf and VenueOf record the ground-truth associations used by
	// Task 1 (Author) and Task 2 (Venue).
	AuthorsOf map[graph.NodeID][]graph.NodeID
	VenueOf   map[graph.NodeID]graph.NodeID
	// TopicTerms maps a topic name ("spatio temporal data") to its
	// characteristic term node IDs, used by the illustrative venue-ranking
	// examples of Fig. 6 and Fig. 7.
	TopicTerms map[string][]graph.NodeID
}

// GenerateBibNet builds a synthetic bibliographic network.
func GenerateBibNet(cfg BibNetConfig) (*BibNet, error) {
	if cfg.Papers <= 0 || cfg.Authors <= 0 {
		return nil, fmt.Errorf("datasets: BibNet needs positive paper and author counts")
	}
	if cfg.TermsPerPaper <= 0 {
		cfg.TermsPerPaper = 6
	}
	if cfg.MaxAuthorsPerPaper <= 0 {
		cfg.MaxAuthorsPerPaper = 3
	}
	if cfg.BroadVenueBias < 0 || cfg.BroadVenueBias > 1 {
		return nil, fmt.Errorf("datasets: BroadVenueBias must be in [0,1]")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	areas := defaultAreas()

	b := graph.NewBuilder()
	RegisterTypes(b)
	net := &BibNet{
		AuthorsOf:  make(map[graph.NodeID][]graph.NodeID),
		VenueOf:    make(map[graph.NodeID]graph.NodeID),
		TopicTerms: make(map[string][]graph.NodeID),
	}

	// Venues: broad venues per area plus one specific venue per topic.
	type venueInfo struct {
		id    graph.NodeID
		area  int
		topic int // -1 for broad venues
	}
	var venues []venueInfo
	for ai, area := range areas {
		for _, name := range area.BroadVenues {
			id := b.AddNode(TypeVenue, "venue:"+name)
			venues = append(venues, venueInfo{id: id, area: ai, topic: -1})
			net.Venues = append(net.Venues, id)
		}
		for ti, topic := range area.Topics {
			id := b.AddNode(TypeVenue, "venue:"+topic.SpecificVenue)
			venues = append(venues, venueInfo{id: id, area: ai, topic: ti})
			net.Venues = append(net.Venues, id)
		}
	}

	// Terms: named characteristic terms (shared across topics when repeated)
	// plus generic per-topic vocabulary and a pool of common filler terms.
	seenTerms := make(map[graph.NodeID]bool)
	termID := func(word string) graph.NodeID {
		id := b.AddNode(TypeTerm, "term:"+word)
		if !seenTerms[id] {
			seenTerms[id] = true
			net.Terms = append(net.Terms, id)
		}
		return id
	}
	topicTermIDs := make([][][]graph.NodeID, len(areas)) // [area][topic][]
	for ai, area := range areas {
		topicTermIDs[ai] = make([][]graph.NodeID, len(area.Topics))
		for ti, topic := range area.Topics {
			ids := make([]graph.NodeID, 0, len(topic.Terms)+cfg.ExtraTermsPerTopic)
			for _, w := range topic.Terms {
				ids = append(ids, termID(w))
			}
			for e := 0; e < cfg.ExtraTermsPerTopic; e++ {
				ids = append(ids, termID(fmt.Sprintf("%s-%s-x%d", area.Name, topic.Name[:3], e)))
			}
			topicTermIDs[ai][ti] = ids
			net.TopicTerms[topic.Name] = append([]graph.NodeID(nil), ids[:len(topic.Terms)]...)
		}
	}
	commonTerms := make([]graph.NodeID, 0, 40)
	for i := 0; i < 40; i++ {
		commonTerms = append(commonTerms, termID(fmt.Sprintf("common-%d", i)))
	}

	// Authors: each has a home (area, topic) and Zipf productivity.
	type authorInfo struct {
		id    graph.NodeID
		area  int
		topic int
	}
	authors := make([]authorInfo, cfg.Authors)
	for i := range authors {
		ai := rng.Intn(len(areas))
		ti := rng.Intn(len(areas[ai].Topics))
		id := b.AddNode(TypeAuthor, fmt.Sprintf("author:a%05d", i))
		authors[i] = authorInfo{id: id, area: ai, topic: ti}
		net.Authors = append(net.Authors, id)
	}
	authorPick := zipfWeights(cfg.Authors, 1.1)

	// Group authors and venues by area/topic for affine selection.
	authorsByTopic := map[[2]int][]int{}
	for i, a := range authors {
		key := [2]int{a.area, a.topic}
		authorsByTopic[key] = append(authorsByTopic[key], i)
	}
	broadVenuesByArea := map[int][]int{}
	specificVenueByTopic := map[[2]int]int{}
	for vi, v := range venues {
		if v.topic < 0 {
			broadVenuesByArea[v.area] = append(broadVenuesByArea[v.area], vi)
		} else {
			specificVenueByTopic[[2]int{v.area, v.topic}] = vi
		}
	}

	// Papers.
	termPickCache := map[[2]int][]float64{}
	papersByTopic := map[[2]int][]graph.NodeID{}
	for p := 0; p < cfg.Papers; p++ {
		ai := rng.Intn(len(areas))
		ti := rng.Intn(len(areas[ai].Topics))
		key := [2]int{ai, ti}
		paper := b.AddNode(TypePaper, fmt.Sprintf("paper:p%06d", p))
		net.Papers = append(net.Papers, paper)

		// Venue: broad with probability BroadVenueBias, otherwise the topic's
		// specific venue.
		var vi int
		if rng.Float64() < cfg.BroadVenueBias {
			cands := broadVenuesByArea[ai]
			vi = cands[rng.Intn(len(cands))]
		} else {
			vi = specificVenueByTopic[key]
		}
		venue := venues[vi].id
		b.MustAddUndirectedEdge(paper, venue, 1)
		net.VenueOf[paper] = venue

		// Terms: Zipf over the topic vocabulary plus occasional common terms.
		vocab := topicTermIDs[ai][ti]
		weights, ok := termPickCache[key]
		if !ok {
			weights = zipfWeights(len(vocab), 1.05)
			termPickCache[key] = weights
		}
		for _, idx := range sampleDistinct(rng, weights, cfg.TermsPerPaper-1) {
			b.MustAddUndirectedEdge(paper, vocab[idx], 1)
		}
		b.MustAddUndirectedEdge(paper, commonTerms[rng.Intn(len(commonTerms))], 1)

		// Authors: 1..MaxAuthorsPerPaper, mostly from the paper's topic.
		nAuth := 1 + rng.Intn(cfg.MaxAuthorsPerPaper)
		seen := map[graph.NodeID]bool{}
		for a := 0; a < nAuth; a++ {
			var cand int
			if topicAuthors := authorsByTopic[key]; len(topicAuthors) > 0 && rng.Float64() < 0.8 {
				cand = topicAuthors[rng.Intn(len(topicAuthors))]
			} else {
				cand = sample(rng, authorPick)
			}
			id := authors[cand].id
			if seen[id] {
				continue
			}
			seen[id] = true
			b.MustAddUndirectedEdge(paper, id, 1)
			net.AuthorsOf[paper] = append(net.AuthorsOf[paper], id)
		}

		// Citations: directed edges to earlier papers, biased to the same
		// topic (preferential to recent ones).
		if prior := papersByTopic[key]; len(prior) > 0 && cfg.CitationsPerPaper > 0 {
			nCite := rng.Intn(cfg.CitationsPerPaper + 1)
			for c := 0; c < nCite; c++ {
				target := prior[len(prior)-1-rng.Intn(min(len(prior), 50))]
				if target != paper {
					b.MustAddEdge(paper, target, 1)
				}
			}
		}
		papersByTopic[key] = append(papersByTopic[key], paper)
	}

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	net.Graph = g
	return net, nil
}

// Snapshots returns n cumulative snapshots of the network, modelling its
// growth over time as in Fig. 12: the i-th snapshot contains the first
// (i+1)/n fraction of the papers (papers are generated in publication order)
// together with every author, term and venue incident to them.
func (n *BibNet) Snapshots(count int) ([]*graph.Subgraph, error) {
	if count <= 0 {
		return nil, fmt.Errorf("datasets: snapshot count must be positive")
	}
	out := make([]*graph.Subgraph, 0, count)
	for i := 1; i <= count; i++ {
		cut := len(n.Papers) * i / count
		keep := make(map[graph.NodeID]bool)
		for _, p := range n.Papers[:cut] {
			keep[p] = true
			// Undirected edges are stored in both directions, and citations
			// only point to earlier papers (already in the cut), so the
			// out-adjacency alone covers all incident non-paper nodes.
			cols, _ := n.Graph.OutRow(p)
			for _, to := range cols {
				if n.Graph.Type(to) != TypePaper {
					keep[to] = true
				}
			}
		}
		nodes := make([]graph.NodeID, 0, len(keep))
		for v := range keep {
			nodes = append(nodes, v)
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		out = append(out, graph.Induced(n.Graph, nodes))
	}
	return out, nil
}

// QueryTermsFor returns the characteristic term node IDs of a named topic
// (e.g. "spatio temporal data"), for use as a multi-node query.
func (n *BibNet) QueryTermsFor(topic string) []graph.NodeID {
	return n.TopicTerms[topic]
}
