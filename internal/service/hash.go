package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strconv"

	"repro/internal/algo"
	"repro/internal/graph"
)

// GraphHash returns the canonical content address of g — "sha256:" plus the
// hex digest of the graph's full content (structure, node and edge weights,
// coordinates). This is the address PUT /v1/graphs returns and batch jobs
// reference; equal graphs hash equal regardless of wire encoding.
func GraphHash(g *graph.Graph) string {
	h := hashGraph(g)
	return "sha256:" + hex.EncodeToString(h[:])
}

// keyedOptions names, in key order, every algo.Options field that can
// change a partition, with the tag its value carries in a cache key.
// neutralOptions names every field that never does: Workers and EvalWorkers
// are pure speed knobs (the internal/par bit-identity contract), Ctx is
// per-submission plumbing, and MultilevelStats is an output-only sink.
// Together the two lists name each Options field exactly once, which a
// reflection test enforces — a new option cannot silently drop out of the
// key.
var (
	keyedOptions = []struct{ field, tag string }{
		{"Parts", "p"}, {"Objective", "o"}, {"Seed", "s"},
		{"Generations", "g"}, {"PopSize", "n"}, {"Islands", "i"},
		{"RefinePasses", "r"}, {"CoarsestSize", "c"}, {"LanczosIter", "l"},
	}
	neutralOptions = []string{"Workers", "EvalWorkers", "Ctx", "MultilevelStats"}
)

// cacheKeyFromHash derives the content address of a request: the graph's
// content hash joined with the algorithm name and every keyed option. Two
// requests with the same key are guaranteed the same partition (the
// registry's determinism contract), which is what makes returning a cached
// result sound — and bit-identical. Callers hold the graph's content
// address already, so deriving a key costs string formatting, never a
// rehash — this is what makes an N-spec batch over one stored graph exactly
// one content hash, not N.
func cacheKeyFromHash(graphHash, algoName string, o algo.Options) string {
	b := []byte(graphHash + ":" + algoName + ":")
	v := reflect.ValueOf(o)
	for i, k := range keyedOptions {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(append(b, k.tag...), v.FieldByName(k.field).Int(), 10)
	}
	return string(b)
}

// normalizeOptions zeroes the result-neutral fields, so they never reach a
// cache key or a cached entry; the engine substitutes its own execution
// width for the speed knobs.
func normalizeOptions(o algo.Options) algo.Options {
	v := reflect.ValueOf(&o).Elem()
	for _, name := range neutralOptions {
		v.FieldByName(name).SetZero()
	}
	return o
}

// hashGraph digests a graph's full content — structure, node and edge
// weights, and coordinates — in a canonical order, so equal graphs hash
// equal regardless of how they were built or parsed. CSR adjacency is
// already canonical (sorted rows), so one pass over the public accessors
// suffices.
func hashGraph(g *graph.Graph) [sha256.Size]byte {
	h := sha256.New()
	var scratch [8]byte
	writeU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(scratch[:], x)
		h.Write(scratch[:])
	}
	writeF64 := func(f float64) { writeU64(math.Float64bits(f)) }

	n := g.NumNodes()
	writeU64(uint64(n))
	writeU64(uint64(g.NumEdges()))
	hasCoords := g.HasCoords()
	if hasCoords {
		writeU64(1)
	} else {
		writeU64(0)
	}
	for v := 0; v < n; v++ {
		writeF64(g.NodeWeight(v))
		if hasCoords {
			p := g.Coord(v)
			writeF64(p.X)
			writeF64(p.Y)
		}
		nbrs := g.Neighbors(v)
		ws := g.EdgeWeights(v)
		writeU64(uint64(len(nbrs)))
		for i, u := range nbrs {
			writeU64(uint64(u))
			writeF64(ws[i])
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
