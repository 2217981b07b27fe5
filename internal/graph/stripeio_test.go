package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// stripeTestGraph builds a small typed graph with asymmetric degrees, a
// dangling node, and non-unit weights, so stripes exercise uneven rows.
func stripeTestGraph(t testing.TB) *Graph {
	b := NewBuilder()
	n := 11
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNode(Untyped, "s:"+string(rune('a'+i)))
	}
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(ids[i], ids[(i+3)%n], float64(i%4)+0.5); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := b.AddEdge(ids[i], ids[(i+1)%n], 2); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func encodeStripe(t testing.TB, d *StripeData) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeStripe(&buf, d); err != nil {
		t.Fatalf("EncodeStripe: %v", err)
	}
	return buf.Bytes()
}

func TestStripeCodecRoundTrip(t *testing.T) {
	g := stripeTestGraph(t)
	for _, count := range []int{1, 2, 3, 5, 16} {
		for index := 0; index < count; index++ {
			d, err := BuildStripeData(g, index, count)
			if err != nil {
				t.Fatalf("BuildStripeData(%d,%d): %v", index, count, err)
			}
			got, err := DecodeStripe(bytes.NewReader(encodeStripe(t, d)))
			if err != nil {
				t.Fatalf("DecodeStripe(%d,%d): %v", index, count, err)
			}
			if !reflect.DeepEqual(d, got) {
				t.Fatalf("stripe %d/%d changed across the codec:\nwant %+v\ngot  %+v", index, count, d, got)
			}
		}
	}
}

func TestStripeDecodeTruncation(t *testing.T) {
	g := stripeTestGraph(t)
	d, err := BuildStripeData(g, 0, 2)
	if err != nil {
		t.Fatalf("BuildStripeData: %v", err)
	}
	enc := encodeStripe(t, d)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeStripe(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("decoding a %d/%d-byte prefix succeeded", cut, len(enc))
		}
	}
}

func TestStripeDecodeCorruption(t *testing.T) {
	g := stripeTestGraph(t)
	d, err := BuildStripeData(g, 1, 2)
	if err != nil {
		t.Fatalf("BuildStripeData: %v", err)
	}
	enc := encodeStripe(t, d)
	// Flip one bit of every byte in turn; the checksum (or, for the trailing
	// checksum bytes themselves, the comparison) must catch each.
	for i := 0; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := DecodeStripe(bytes.NewReader(bad)); err == nil {
			t.Fatalf("decoding with byte %d corrupted succeeded", i)
		}
	}
}

// TestStripeDecodeForgedLength verifies the bounded-chunk reader: a header
// claiming a multi-gigabyte array must fail on truncation without trying to
// allocate it.
func TestStripeDecodeForgedLength(t *testing.T) {
	g := stripeTestGraph(t)
	d, err := BuildStripeData(g, 0, 3)
	if err != nil {
		t.Fatalf("BuildStripeData: %v", err)
	}
	enc := encodeStripe(t, d)
	// The first array length (out RowPtr) sits right after the 32-byte header.
	bad := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint64(bad[32:], 1<<40)
	if _, err := DecodeStripe(bytes.NewReader(bad)); err == nil {
		t.Fatalf("decoding with a forged 2^40 array length succeeded")
	}
}

func TestStripeDecodeWrongMagicAndVersion(t *testing.T) {
	g := stripeTestGraph(t)
	d, err := BuildStripeData(g, 0, 1)
	if err != nil {
		t.Fatalf("BuildStripeData: %v", err)
	}
	enc := encodeStripe(t, d)

	bad := append([]byte(nil), enc...)
	copy(bad, "NOPE")
	if _, err := DecodeStripe(bytes.NewReader(bad)); err == nil {
		t.Fatalf("decoding with a wrong magic succeeded")
	}

	bad = append([]byte(nil), enc...)
	binary.LittleEndian.PutUint16(bad[4:], 99) // version field
	if _, err := DecodeStripe(bytes.NewReader(bad)); err == nil {
		t.Fatalf("decoding version 99 succeeded")
	}
}

// TestStripeCodecRefusesSelfLoop holds stripes to the edge rule a Builder
// applies: an entry of row r naming the row's own node, Index + r·Count, is a
// self-loop, which EncodeStripe refuses to write and DecodeStripe to read —
// in either direction. The same entry naming node r instead is a valid edge,
// which pins the row-to-node mapping.
func TestStripeCodecRefusesSelfLoop(t *testing.T) {
	g := stripeTestGraph(t)
	const index, count, r = 1, 3, 1
	self := NodeID(index + r*count)
	for _, in := range []bool{false, true} {
		for _, col := range []NodeID{self, r} {
			d, err := BuildStripeData(g, index, count)
			if err != nil {
				t.Fatalf("BuildStripeData: %v", err)
			}
			c := &d.Out
			if in {
				c = &d.In
			}
			if c.RowPtr[r] == c.RowPtr[r+1] {
				t.Fatalf("in %v: row %d is empty", in, r)
			}
			c.Col = append([]NodeID(nil), c.Col...)
			c.Col[c.RowPtr[r]] = col
			var forged bytes.Buffer
			if err := writeStripe(&forged, d); err != nil {
				t.Fatalf("writeStripe: %v", err)
			}
			_, decodeErr := DecodeStripe(bytes.NewReader(forged.Bytes()))
			encodeErr := EncodeStripe(&bytes.Buffer{}, d)
			if col != self {
				if encodeErr != nil || decodeErr != nil {
					t.Errorf("in %v, column %d in the row of node %d: EncodeStripe %v, DecodeStripe %v; want both to accept",
						in, col, self, encodeErr, decodeErr)
				}
				continue
			}
			for _, err := range []error{encodeErr, decodeErr} {
				if err == nil || !strings.Contains(err.Error(), "self-loop") {
					t.Errorf("in %v: EncodeStripe %v, DecodeStripe %v; want both to refuse the self-loop on node %d",
						in, encodeErr, decodeErr, self)
				}
			}
		}
	}
}

func TestBuildStripeDataRejectsBadIndices(t *testing.T) {
	g := stripeTestGraph(t)
	for _, bad := range [][2]int{{0, 0}, {-1, 2}, {2, 2}, {0, -1}} {
		if _, err := BuildStripeData(g, bad[0], bad[1]); err == nil {
			t.Errorf("BuildStripeData(%d,%d) succeeded", bad[0], bad[1])
		}
	}
}

// FuzzDecodeStripe throws arbitrary bytes at the stripe decoder: it must
// never panic or over-allocate, and anything it accepts must be a valid
// stripe that survives a re-encode/decode round trip unchanged.
func FuzzDecodeStripe(f *testing.F) {
	g := stripeTestGraph(f)
	for _, count := range []int{1, 3} {
		for index := 0; index < count; index++ {
			d, err := BuildStripeData(g, index, count)
			if err != nil {
				f.Fatalf("BuildStripeData: %v", err)
			}
			enc := encodeStripe(f, d)
			f.Add(enc)
			f.Add(enc[:len(enc)/2])
		}
	}
	f.Add([]byte("RTS1"))
	// A well-formed packed row carrying a NaN weight: the packed structure is
	// sound, so only the flat check after unpacking rejects it.
	nan, err := BuildStripeData(g, 0, 1)
	if err != nil {
		f.Fatalf("BuildStripeData: %v", err)
	}
	nan.Out.Weight[0] = math.NaN()
	var forged bytes.Buffer
	if err := writeStripe(&forged, nan); err != nil {
		f.Fatalf("writeStripe: %v", err)
	}
	if _, err := DecodeStripe(bytes.NewReader(forged.Bytes())); err == nil {
		f.Fatalf("a stripe with a NaN weight decoded")
	}
	f.Add(forged.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeStripe(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("decoded stripe fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := EncodeStripe(&buf, d); err != nil {
			t.Fatalf("re-encode of accepted stripe failed: %v", err)
		}
		d2, err := DecodeStripe(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of accepted stripe failed: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("stripe changed across re-encode round trip")
		}
	})
}
