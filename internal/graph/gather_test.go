package graph

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// gatherTestRows makes the rows of an n = len(lens) node CSR whose row r has
// lens[r] entries: random columns below n, random weights of spread
// magnitudes or, when unit, the unit form.
func gatherTestRows(rng *rand.Rand, lens []int, unit bool) CSR {
	n := len(lens)
	c := CSR{RowPtr: make([]int64, n+1), Sum: make([]float64, n)}
	for r, l := range lens {
		for range l {
			c.Col = append(c.Col, NodeID(rng.Intn(n)))
			w := 1.0
			if !unit {
				w = math.Ldexp(rng.Float64()+0.5, rng.Intn(40)-20)
			}
			c.Weight = append(c.Weight, w)
			c.Sum[r] += w
		}
		c.RowPtr[r+1] = int64(len(c.Col))
	}
	if unit {
		return c.withOnes()
	}
	return c
}

// refGather is the reference the gather kernel is held to, one row at a
// time: row r's entries summed in stored order, weight times x of the column,
// a weight of 1 in the unit form.
func refGather(c CSR, x []float64, r NodeID) float64 {
	sum := 0.0
	for i := c.RowPtr[r]; i < c.RowPtr[r+1]; i++ {
		w := 1.0
		if c.Weight != nil {
			w = c.Weight[i]
		}
		sum += w * x[c.Col[i]]
	}
	return sum
}

// checkGatherReference holds CSR.Gather to refGather bit for bit, over the
// row range and over list, split into every chunk of one, two and three rows
// or list entries — every parity of lo and hi — the whole, and each cut in
// cuts as two chunks. A chunk must fill each of its rows with its reduction
// and leave every other row as it was or filled with its own.
func checkGatherReference(t *testing.T, name string, c CSR, x []float64, list []NodeID, cuts []int) {
	t.Helper()
	n := len(c.RowPtr) - 1
	want := make([]float64, n)
	for r := range want {
		want[r] = refGather(c, x, NodeID(r))
	}
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	dst := make([]float64, n)
	check := func(rows []NodeID, lo, hi int) {
		for r := range dst {
			dst[r] = sentinel
		}
		c.Gather(x, dst, rows, lo, hi)
		in := make(map[int]bool, hi-lo)
		for k := lo; k < hi; k++ {
			r := k
			if rows != nil {
				r = int(rows[k])
			}
			in[r] = true
		}
		for r, got := range dst {
			same := math.Float64bits(got) == math.Float64bits(want[r])
			if !same && (in[r] || math.Float64bits(got) != math.Float64bits(sentinel)) {
				t.Fatalf("%s (listed %t) [%d, %d): row %d (%d entries) gathers %v, want %v", name, rows != nil, lo, hi, r, c.Degree(NodeID(r)), got, want[r])
			}
		}
	}
	for _, rows := range [][]NodeID{nil, list} {
		m := n
		if rows != nil {
			m = len(rows)
		}
		for width := 1; width <= 3; width++ {
			for lo := 0; lo+width <= m; lo++ {
				check(rows, lo, lo+width)
			}
		}
		check(rows, 0, m)
		for _, cut := range cuts {
			cut %= m + 1
			check(rows, 0, cut)
			check(rows, cut, m)
		}
	}
}

// gatherShapes are row-length lists the paired loop must handle: empty rows,
// rows of one entry, a long row beside short ones either side, lengths that
// alternate, an odd and an even row count.
var gatherShapes = map[string][]int{
	"empty":       {0, 0, 0, 0, 0},
	"one":         {3},
	"ones":        {1, 1, 1, 1, 1, 1, 1},
	"longFirst":   {97, 1, 0, 2, 3},
	"longLast":    {2, 0, 1, 3, 97, 0},
	"alternating": {0, 60, 1, 59, 0, 61, 2, 58, 0},
	"ascending":   {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	"descending":  {40, 30, 20, 10, 5, 4, 3, 2, 1, 0, 0},
}

// TestGatherMatchesRowByRowReference holds CSR.Gather, weighted and in the
// unit form, over the row range and a list, to a loop that reduces one row
// at a time in stored entry order (checkGatherReference), on the shapes of
// gatherShapes and on random ones with very unequal row lengths.
func TestGatherMatchesRowByRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	shapes := maps.Clone(gatherShapes)
	for draw := range 40 {
		lens := make([]int, 1+rng.Intn(40))
		for r := range lens {
			lens[r] = []int{0, 1, 2, rng.Intn(8), rng.Intn(200)}[rng.Intn(5)]
		}
		shapes[fmt.Sprintf("random%d", draw)] = lens
	}
	for _, name := range slices.Sorted(maps.Keys(shapes)) {
		lens := shapes[name]
		for _, unit := range []bool{false, true} {
			c := gatherTestRows(rng, lens, unit)
			x := make([]float64, len(lens))
			for i := range x {
				x[i] = math.Ldexp(rng.Float64(), rng.Intn(60)-30)
			}
			var list []NodeID
			for r := range lens {
				if rng.Intn(3) > 0 {
					list = append(list, NodeID(r))
				}
			}
			checkGatherReference(t, fmt.Sprintf("%s/unit=%t", name, unit), c, x, list, []int{rng.Intn(len(lens) + 1)})
		}
	}
}

// FuzzGatherReference turns fuzz bytes into rows — each byte one row, of no
// entry, one to seven, or up to 189 — weighted or in the unit form, with a
// fuzzed list of them and fuzzed cuts, and holds CSR.Gather to the
// row-at-a-time reference (checkGatherReference).
func FuzzGatherReference(f *testing.F) {
	f.Add([]byte{0, 4, 0x81, 2, 0xff, 0}, int64(1), uint8(3))
	f.Add([]byte{0xfe, 1, 1, 0xfe, 0, 0x40, 0x42}, int64(-7), uint8(0xaa))
	f.Add([]byte{5}, int64(0), uint8(1))
	f.Fuzz(func(t *testing.T, shape []byte, seed int64, mask uint8) {
		if len(shape) == 0 || len(shape) > 256 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		lens := make([]int, len(shape))
		var list []NodeID
		for r, b := range shape {
			switch b % 4 {
			case 1:
				lens[r] = 1 + int(b>>2)%7
			case 2, 3:
				lens[r] = 3 * int(b>>2)
			}
			if mask>>(r%8)&1 == 1 {
				list = append(list, NodeID(r))
			}
		}
		c := gatherTestRows(rng, lens, seed%2 == 0)
		x := make([]float64, len(lens))
		for i := range x {
			x[i] = math.Ldexp(rng.Float64(), rng.Intn(60)-30)
		}
		checkGatherReference(t, "fuzz", c, x, list, []int{int(mask), int(seed & 0xff)})
	})
}
