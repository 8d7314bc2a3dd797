package sim

import (
	"container/heap"
	"testing"
)

// BenchmarkEngineEvent measures raw event scheduling+dispatch cost,
// the floor under every simulated I/O.
func BenchmarkEngineEvent(b *testing.B) {
	e := NewEngine()
	var fn func()
	fn = func() {
		e.After(100, fn)
	}
	e.After(100, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineFanout measures heap behaviour with many pending
// events (a deep device queue's worth).
func BenchmarkEngineFanout(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 1024; i++ {
		d := Duration(i + 1)
		var fn func()
		fn = func() { e.After(d, fn) }
		e.After(d, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGExpDuration(b *testing.B) {
	r := NewRNG(1)
	var sink Duration
	for i := 0; i < b.N; i++ {
		sink += r.ExpDuration(1000)
	}
	_ = sink
}

// boxedKeyHeap is the container/heap shape the engine started from,
// kept as the baseline side of BenchmarkEngineHotLoop: every Push
// boxes a key into an interface, allocating per call.
type boxedKeyHeap []key

func (h boxedKeyHeap) Len() int            { return len(h) }
func (h boxedKeyHeap) Less(i, j int) bool  { return h[i].less(h[j]) }
func (h boxedKeyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedKeyHeap) Push(x interface{}) { *h = append(*h, x.(key)) }
func (h *boxedKeyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	k := old[n-1]
	*h = old[:n-1]
	return k
}

// BenchmarkEngineHotLoop measures the key heap's steady-state queue
// operation — pop the earliest key, push its successor — with a deep
// pending population, for the specialized 4-ary heap vs container/heap.
// It is informational: the regression gate compares the public-API
// benchmarks above against the merge-base. The 4-ary side must report
// 0 allocs/op.
func BenchmarkEngineHotLoop(b *testing.B) {
	const pending = 256
	b.Run("heap4", func(b *testing.B) {
		e := NewEngine()
		var seq uint64
		for i := 0; i < pending; i++ {
			seq++
			e.push(key{at: Time(i), ord: seq << slotBits})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := e.pop()
			seq++
			e.push(key{at: k.at + pending, ord: seq << slotBits})
		}
	})
	b.Run("container-heap", func(b *testing.B) {
		var h boxedKeyHeap
		var seq uint64
		for i := 0; i < pending; i++ {
			seq++
			heap.Push(&h, key{at: Time(i), ord: seq << slotBits})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := heap.Pop(&h).(key)
			seq++
			heap.Push(&h, key{at: k.at + pending, ord: seq << slotBits})
		}
	})
}
