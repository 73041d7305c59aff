// The simulator is cycle-driven but event-assisted: components schedule
// wakeups on a global min-heap so the main loop can skip cycles where
// nothing can happen. Tens of millions of events flow through it per
// simulated frame, and its pop is the simulator's hottest loop.
//
// Each event is a cycle plus one packed payload word. The heap keeps the
// two in parallel arrays, so the pop's descent, a chain of dependent loads,
// reads only the 8-byte keys. Push fills a hole instead of swapping, and
// pop is a bottom-up (Wegener) sift with a branchless child choice.
//
// The order among equal-cycle events is an accident of the sift algorithm,
// and the golden reports freeze it. Both operations leave every array state
// exactly as the classic swap-based sift-up and sift-down would (see
// cycleHeap.pop for the argument), so the pop sequence, ties included, is
// unchanged; FuzzEventHeapOrder checks this against a copy of the classic
// heap.

package gpu

import "math/bits"

type evKind uint8

const (
	// evWarpWake moves a blocked warp back to its SM's ready set.
	evWarpWake evKind = iota
	// evRayWork makes an RT-unit ray ready to issue its next step.
	evRayWork
	// evFetchDone releases one RT-unit MSHR slot and unstalls a waiting
	// ray if any.
	evFetchDone
)

// Payload word layout: kind(2) | sm(10) | id(20) | uid(32), most
// significant first. newSim rejects configurations that exceed the field
// widths (1024 SMs, 2^20 warp slots / resident rays) and Run rejects jobs
// with 2^32 or more warps, so packing never truncates.
const (
	evKindShift = 62
	evSMShift   = 52
	evIDShift   = 32

	evSMLimit  = 1 << 10
	evIDLimit  = 1 << 20
	evUIDLimit = 1 << 32
)

type event struct {
	cycle uint64
	word  uint64
}

// mkEvent packs an event. id is a warp slot (evWarpWake) or ray pool index
// (evRayWork); uid is the warp generation tag validating wakes against slot
// reuse (unused by ray events).
func mkEvent(cycle uint64, kind evKind, sm int, id int32, uid int64) event {
	return event{
		cycle: cycle,
		word: uint64(kind)<<evKindShift |
			uint64(sm)<<evSMShift |
			(uint64(uint32(id))&(evIDLimit-1))<<evIDShift |
			uint64(uid)&(evUIDLimit-1),
	}
}

func (e event) kind() evKind { return evKind(e.word >> evKindShift) }
func (e event) sm() int32    { return int32(e.word >> evSMShift & (evSMLimit - 1)) }
func (e event) id() int32    { return int32(e.word >> evIDShift & (evIDLimit - 1)) }
func (e event) uid() uint32  { return uint32(e.word) }

// cycleHeap is the simulator's one binary min-heap keyed by cycle, with a
// payload of type W beside each key. With W = struct{} the payload moves
// compile away and only the keys remain (doneQ).
type cycleHeap[W any] struct {
	cycles []uint64
	words  []W
}

// push appends c and moves larger ancestors down into the hole until c
// fits. An equal parent stops the climb, as in the classic sift-up.
func (h *cycleHeap[W]) push(c uint64, w W) {
	h.cycles = append(h.cycles, c)
	h.words = append(h.words, w)
	cs, ws := h.cycles, h.words
	i := len(cs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if cs[p] <= c {
			break
		}
		cs[i], ws[i] = cs[p], ws[p]
		i = p
	}
	cs[i], ws[i] = c, w
}

// pop removes and returns the minimum. The classic sift-down moves the last
// element x to the root and swaps it with the smaller child (the left one
// on ties) while that child is strictly smaller than x. pop instead walks
// the root hole down the same min-child path to a leaf without comparing
// against x, then climbs back while the parent is not strictly less than
// x. Keys along the path never decrease, so the path entries below x's
// classic resting place are exactly those the climb moves back down, and x
// lands where the classic sift-down would stop.
func (h *cycleHeap[W]) pop() (uint64, W) {
	cs, ws := h.cycles, h.words
	top, topW := cs[0], ws[0]
	n := len(cs) - 1
	x, xw := cs[n], ws[n]
	cs, ws = cs[:n], ws[:n]
	h.cycles, h.words = cs, ws
	if n == 0 {
		return top, topW
	}
	i := 0
	for l := 1; l+1 < len(cs); l = 2*i + 1 {
		// The right child only when strictly smaller; lt is the borrow of
		// r-l, so the step has no data-dependent branch.
		_, lt := bits.Sub64(cs[l+1], cs[l], 0)
		c := l + int(lt)
		cs[i], ws[i] = cs[c], ws[c]
		i = c
	}
	if l := 2*i + 1; l < len(cs) {
		cs[i], ws[i] = cs[l], ws[l]
		i = l
	}
	for i > 0 {
		p := (i - 1) / 2
		if cs[p] < x {
			break
		}
		cs[i], ws[i] = cs[p], ws[p]
		i = p
	}
	cs[i], ws[i] = x, xw
	return top, topW
}

func (h *cycleHeap[W]) len() int { return len(h.cycles) }

func (h *cycleHeap[W]) minCycle() uint64 { return h.cycles[0] }

// reset empties the heap, keeping its backing arrays for a pooled rerun.
func (h *cycleHeap[W]) reset() {
	h.cycles = h.cycles[:0]
	h.words = h.words[:0]
}

// eventHeap is the global event queue: a cycleHeap whose payload is the
// packed event word.
type eventHeap struct{ cycleHeap[uint64] }

func (h *eventHeap) push(e event) { h.cycleHeap.push(e.cycle, e.word) }

func (h *eventHeap) pop() event {
	c, w := h.cycleHeap.pop()
	return event{cycle: c, word: w}
}
