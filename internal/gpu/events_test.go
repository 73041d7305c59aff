package gpu

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// classicHeap is the swap-based binary heap the simulator used before the
// bottom-up pop. Its order among equal-cycle events is the one the golden
// reports freeze, so it is the reference eventHeap must match exactly.
type classicHeap struct {
	items []event
}

func (h *classicHeap) push(e event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].cycle <= h.items[i].cycle {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *classicHeap) pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].cycle < h.items[smallest].cycle {
			smallest = l
		}
		if r < last && h.items[r].cycle < h.items[smallest].cycle {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

// sameLayout reports whether h holds exactly ref's array, slot for slot.
func sameLayout(h *eventHeap, ref *classicHeap) bool {
	if h.len() != len(ref.items) || len(h.words) != len(ref.items) {
		return false
	}
	for i, e := range ref.items {
		if h.cycles[i] != e.cycle || h.words[i] != e.word {
			return false
		}
	}
	return true
}

// FuzzEventHeapOrder drives eventHeap and the classic heap with the same
// interleaved operations and requires identical pops, minCycle answers and
// array layouts after every step. Each input byte is one operation; pushed
// cycles sit within 3 of the last popped cycle so ties dominate, and one
// operation pushes the same (cycle, word) pair twice, as the RT unit's
// twin evFetchDone pushes do.
func FuzzEventHeapOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		var h eventHeap
		var ref classicHeap
		var now, seq uint64
		for step, b := range ops {
			switch b & 3 {
			case 0: // push a uniquely tagged event
				seq++
				e := event{cycle: now + uint64(b>>2&3), word: seq}
				h.push(e)
				ref.push(e)
			case 1: // push one (cycle, word) pair twice
				e := event{cycle: now + uint64(b>>2&3), word: uint64(b >> 4)}
				for range 2 {
					h.push(e)
					ref.push(e)
				}
			case 2:
				if len(ref.items) == 0 {
					continue
				}
				got, want := h.pop(), ref.pop()
				if got != want {
					t.Fatalf("step %d: pop = %+v, want %+v", step, got, want)
				}
				now = want.cycle
			case 3:
				if len(ref.items) > 0 && h.minCycle() != ref.items[0].cycle {
					t.Fatalf("step %d: minCycle = %d, want %d",
						step, h.minCycle(), ref.items[0].cycle)
				}
			}
			if !sameLayout(&h, &ref) {
				t.Fatalf("step %d: heap arrays diverged from the classic heap", step)
			}
		}
		for len(ref.items) > 0 {
			if got, want := h.pop(), ref.pop(); got != want {
				t.Fatalf("drain: pop = %+v, want %+v", got, want)
			}
		}
		if h.len() != 0 {
			t.Fatalf("drain: %d events left", h.len())
		}
	})
}

// heapBenchDelays are the event delays BenchmarkEventHeap draws from: the
// simulator's fixed latencies (NoC 8, L1 20, L2 160, a DRAM row miss) and
// a few short RT-unit step times, so many pushes land on the same cycle.
var heapBenchDelays = []uint64{1, 2, 4, 8, 8, 20, 20, 24, 160, 184}

// BenchmarkEventHeap measures one steady-state push+pop pair at the peak
// queue depths of full-frame 128x128 runs (about 1,200 events on
// MobileSoC, 4,600 on RTX2060). Each pop is followed by a push a drawn
// delay later, so the depth stays fixed and cycles advance as in the
// simulator.
func BenchmarkEventHeap(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	delays := make([]uint64, 1<<12)
	for i := range delays {
		delays[i] = heapBenchDelays[rng.IntN(len(heapBenchDelays))]
	}
	for _, depth := range []int{1200, 4600} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var h eventHeap
			for i := 0; i < depth; i++ {
				h.push(event{cycle: delays[i%len(delays)], word: uint64(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := h.pop()
				e.cycle += delays[i&(len(delays)-1)]
				h.push(e)
			}
			benchEventSink = h.minCycle()
		})
	}
}

var benchEventSink uint64
