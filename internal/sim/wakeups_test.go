package sim

import (
	"math/bits"
	"testing"
)

func TestWakeupsBasicOrder(t *testing.T) {
	w := NewWakeups(4)
	if _, ok := w.Min(); ok {
		t.Fatal("empty queue reported a min")
	}
	w.Schedule(2, 30)
	w.Schedule(0, 10)
	w.Schedule(1, 20)
	w.Schedule(3, 10)

	if mt, ok := w.Min(); !ok || mt != 10 {
		t.Fatalf("Min = %d,%v want 10,true", mt, ok)
	}
	// Equal times pop in id order: 0 before 3.
	wantIDs := []int{0, 3, 1, 2}
	wantTs := []uint64{10, 10, 20, 30}
	for i, want := range wantIDs {
		id, tt := w.PopMin()
		if id != want || tt != wantTs[i] {
			t.Fatalf("pop %d = (%d,%d), want (%d,%d)", i, id, tt, want, wantTs[i])
		}
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after draining", w.Len())
	}
}

func TestWakeupsReschedule(t *testing.T) {
	w := NewWakeups(3)
	w.Schedule(0, 100)
	w.Schedule(1, 50)
	w.Schedule(2, 75)

	w.Schedule(0, 10) // move earlier
	if id, tt := w.PopMin(); id != 0 || tt != 10 {
		t.Fatalf("pop = (%d,%d), want (0,10)", id, tt)
	}
	w.Schedule(1, 200) // move later
	if id, tt := w.PopMin(); id != 2 || tt != 75 {
		t.Fatalf("pop = (%d,%d), want (2,75)", id, tt)
	}
	// Rescheduling to the same time is a no-op.
	w.Schedule(1, 200)
	if id, tt := w.PopMin(); id != 1 || tt != 200 {
		t.Fatalf("pop = (%d,%d), want (1,200)", id, tt)
	}
}

// TestWakeupsRandomizedAgainstModel drives the queue and a naive
// linear-scan model with the same random operation stream and checks
// every pop and every Before query agrees, including the (time, id)
// tie-break. It covers the
// machine's largest core count (32, where the id field widens to 6 bits)
// and wake times at the top of the packed-key range.
func TestWakeupsRandomizedAgainstModel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		nearTop bool
	}{
		{"n24", 24, false},
		{"n32", 32, false},
		{"n1", 1, false},
		{"n16-near-bound", 16, true},
		{"n32-near-bound", 32, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var base uint64
			if tc.nearTop {
				base = NewWakeups(tc.n).maxTime() - 999
			}
			checkWakeupsAgainstModel(t, tc.n, base)
		})
	}
}

// checkWakeupsAgainstModel runs the randomized comparison with wake
// times drawn from [base, base+1000).
func checkWakeupsAgainstModel(t *testing.T, n int, base uint64) {
	r := NewRand(7)
	w := NewWakeups(n)
	model := make(map[int]uint64)

	modelMin := func() (int, uint64, bool) {
		bestID, bestT, ok := -1, uint64(0), false
		for id := 0; id < n; id++ {
			tt, in := model[id]
			if !in {
				continue
			}
			if !ok || tt < bestT || (tt == bestT && id < bestID) {
				bestID, bestT, ok = id, tt, true
			}
		}
		return bestID, bestT, ok
	}

	for step := 0; step < 20000; step++ {
		switch r.Intn(4) {
		case 0, 1: // schedule / reschedule
			id := r.Intn(n)
			tt := base + r.Uint64()%1000
			w.Schedule(id, tt)
			model[id] = tt
		case 2: // pop
			mID, mT, mOK := modelMin()
			if gotT, gotOK := w.Min(); gotOK != mOK || (mOK && gotT != mT) {
				t.Fatalf("step %d: Min = %d,%v, model %d,%v", step, gotT, gotOK, mT, mOK)
			}
			if !mOK {
				continue
			}
			id, tt := w.PopMin()
			if id != mID || tt != mT {
				t.Fatalf("step %d: PopMin = (%d,%d), model (%d,%d)", step, id, tt, mID, mT)
			}
			delete(model, id)
		case 3: // point query
			id := r.Intn(n)
			if _, in := model[id]; w.Scheduled(id) != in {
				t.Fatalf("step %d: actor %d Scheduled = %v, model %v", step, id, w.Scheduled(id), in)
			}
		}
		if w.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, w.Len(), len(model))
		}
		// Before against the model minimum; t may step one past the
		// packed-key bound, which must report false.
		id := r.Intn(n)
		tt := base + r.Uint64()%1001
		mID, mT, mOK := modelMin()
		want := tt <= w.maxTime() && (!mOK || tt < mT || (tt == mT && id < mID))
		if got := w.Before(id, tt); got != want {
			t.Fatalf("step %d: Before(%d, %d) = %v, model min (%d,%d,%v)", step, id, tt, got, mID, mT, mOK)
		}
	}
}

// TestWakeupsScheduleBoundPanics pins the packed-key bound: the largest
// representable time is accepted and keeps the id tie-break, and one
// past it panics instead of wrapping into a key that would reorder
// actors due in the same cycle.
func TestWakeupsScheduleBoundPanics(t *testing.T) {
	for _, n := range []int{2, 16, 31, 32} {
		w := NewWakeups(n)
		top := w.maxTime()
		if want := ^uint64(0) >> bits.Len(uint(n)); top != want {
			t.Fatalf("n=%d: maxTime = %d, want %d", n, top, want)
		}
		w.Schedule(n-1, top)
		w.Schedule(0, top)
		if id, tt := w.PopMin(); id != 0 || tt != top {
			t.Fatalf("n=%d: pop = (%d,%d), want (0,%d)", n, id, tt, top)
		}
		if id, tt := w.PopMin(); id != n-1 || tt != top {
			t.Fatalf("n=%d: pop = (%d,%d), want (%d,%d)", n, id, tt, n-1, top)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d: Schedule(%d) past the bound did not panic", n, top+1)
				}
			}()
			w.Schedule(0, top+1)
		}()
		if w.Len() != 0 || w.Scheduled(0) {
			t.Fatalf("n=%d: panicking Schedule changed the queue", n)
		}
	}
}

// TestWakeupsEmptyPanics checks PopMin refuses an empty queue rather
// than return a sentinel id.
func TestWakeupsEmptyPanics(t *testing.T) {
	w := NewWakeups(4)
	w.Schedule(2, 5)
	w.PopMin()
	defer func() {
		if recover() == nil {
			t.Error("PopMin on an empty queue did not panic")
		}
	}()
	w.PopMin()
}

// BenchmarkWakeups replays the machine loop's round trip for a core that
// cannot run ahead (stepAt): 16 actors, each due actor found with Min,
// popped, and rescheduled a short pseudo-random distance ahead.
func BenchmarkWakeups(b *testing.B) {
	const n = 16
	r := NewRand(11)
	deltas := make([]uint64, 1024)
	for i := range deltas {
		deltas[i] = 1 + r.Uint64()%64
	}
	w := NewWakeups(n)
	for i := 0; i < n; i++ {
		w.Schedule(i, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, _ := w.Min()
		id, _ := w.PopMin()
		w.Schedule(id, now+deltas[i&(len(deltas)-1)])
	}
}
