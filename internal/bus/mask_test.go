package bus

import (
	"math/rand"
	"testing"
)

// positionalPick is the arbitration scan pick replaced: under the Priority
// discipline, visit every processor of every class in round-robin order
// from just past the last winner, empty queues included, and take the first
// ready request. pick must agree with it on every state.
func positionalPick(b *Bus, now uint64) (*Request, Class, int, int) {
	for c := Class(0); c < numClasses; c++ {
		qs := b.queues[c]
		for k := 1; k <= b.nproc; k++ {
			p := b.lastWin + k
			if p >= b.nproc {
				p -= b.nproc
			}
			for i, r := range qs[p] {
				if r.Ready <= now {
					return r, c, p, i
				}
			}
		}
	}
	return nil, 0, 0, 0
}

// checkMasks requires bit p of nonempty[c] to be set exactly when processor
// p has a pending request of class c.
func checkMasks(t *testing.T, b *Bus) {
	t.Helper()
	for c := range b.queues {
		for p, q := range b.queues[c] {
			if set := b.nonempty[c]&(1<<uint(p)) != 0; set != (len(q) > 0) {
				t.Fatalf("class %v proc %d: mask bit %v with %d queued", Class(c), p, set, len(q))
			}
		}
	}
}

// TestGrantOrderAt64ProcsFromLastWinner63 pins the full-turn edge: a
// 64-processor bus starts with processor 63 as the last winner, where pick
// rotates the 64-bit queue mask by 64 and no processor lies above the last
// winner. Every processor
// submits one demand and one prefetch at once, in shuffled order; the grants
// must follow the positional scan — all demands from processor 0 up, then
// all prefetches continuing the rotation from the last demand winner.
func TestGrantOrderAt64ProcsFromLastWinner63(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 64)
	if b.lastWin != 63 {
		t.Fatalf("initial lastWin = %d, want 63", b.lastWin)
	}
	rng := rand.New(rand.NewSource(64))
	var got []int
	for _, p := range rng.Perm(64) {
		for _, c := range []Class{Prefetch, Demand} {
			r := &Request{Ready: 0, Occupancy: 2, Class: c, Op: OpFill, Proc: p}
			r.OnGrant = func(uint64) { got = append(got, int(r.Class)*64+r.Proc) }
			if err := b.Submit(0, r); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Replay the same arbitration with the positional scan as the reference.
	ref := mustNew(t, &testSched{}, 64)
	for c := range b.queues {
		for p := range b.queues[c] {
			ref.queues[c][p] = append(procQueue(nil), b.queues[c][p]...)
		}
	}
	var want []int
	for {
		r, c, p, i := positionalPick(ref, 0)
		if r == nil {
			break
		}
		q := ref.queues[c][p]
		ref.queues[c][p] = append(q[:i:i], q[i+1:]...)
		ref.lastWin = p
		want = append(want, int(c)*64+p)
	}

	s.run()
	if len(got) != 128 || len(want) != 128 {
		t.Fatalf("granted %d, reference %d, want 128 each", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant %d = class %d proc %d, positional scan grants class %d proc %d",
				i, got[i]/64, got[i]%64, want[i]/64, want[i]%64)
		}
	}
	if got[0] != 0 || got[63] != 63 {
		t.Errorf("demand grants run %d..%d, want processor 0 first and 63 last", got[0], got[63])
	}
}

// TestPickMatchesPositionalScan drives random submit, promote, cancel and
// grant sequences on buses up to the 64-processor limit and requires pick to
// choose exactly what the positional scan chooses after every step, with
// the non-empty masks tracking the queues.
func TestPickMatchesPositionalScan(t *testing.T) {
	for _, nproc := range []int{1, 5, 63, 64} {
		rng := rand.New(rand.NewSource(int64(nproc)))
		b := mustNew(t, &testSched{}, nproc)
		var pending []*Request
		now := uint64(0)
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				r := &Request{
					Ready:     now + uint64(rng.Intn(6)),
					Occupancy: 1,
					Class:     Class(rng.Intn(int(numClasses))),
					Proc:      rng.Intn(nproc),
				}
				if err := b.Submit(now, r); err != nil {
					t.Fatal(err)
				}
				pending = append(pending, r)
			case op == 5 && len(pending) > 0:
				b.Promote(pending[rng.Intn(len(pending))])
			case op == 6 && len(pending) > 0:
				i := rng.Intn(len(pending))
				b.Cancel(pending[i])
				pending = append(pending[:i], pending[i+1:]...)
			default:
				now += uint64(rng.Intn(3))
				r, c, p, i := b.pick(now)
				wr, wc, wp, wi := positionalPick(b, now)
				if r != wr || c != wc || p != wp || i != wi {
					t.Fatalf("nproc %d step %d now %d lastWin %d: pick = (%v, %v, %d, %d), positional scan = (%v, %v, %d, %d)",
						nproc, step, now, b.lastWin, r, c, p, i, wr, wc, wp, wi)
				}
				if r != nil {
					b.remove(c, p, i)
					r.pending = false
					b.lastWin = p
					for k, q := range pending {
						if q == r {
							pending = append(pending[:k], pending[k+1:]...)
							break
						}
					}
				}
			}
			checkMasks(t, b)
		}
	}
}

// TestNewRejectsMoreThan64Procs pins the processor limit the bitmask
// arbitration imposes, under both disciplines.
func TestNewRejectsMoreThan64Procs(t *testing.T) {
	for _, d := range Disciplines() {
		if _, err := NewWithDiscipline(&testSched{}, 65, d); err == nil {
			t.Errorf("%v: NewWithDiscipline accepted 65 processors", d)
		}
		if _, err := NewWithDiscipline(&testSched{}, 64, d); err != nil {
			t.Errorf("%v: NewWithDiscipline rejected 64 processors: %v", d, err)
		}
	}
}
