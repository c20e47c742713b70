package sim

import "testing"

// stressRand is a tiny deterministic LCG so the stress schedule is
// identical on every run (internal/rng would be an import cycle here).
type stressRand uint64

func (r *stressRand) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 11)
}

func (r *stressRand) intn(n int) int { return int(r.next() % uint64(n)) }

// TestKernelStressManyChains drives a few hundred interleaved event
// chains — each step holding for a random delay, spawning child chains,
// or arming a timer and cancelling it before it fires — to completion.
// Cancelled timers recycle their events through the freelist while
// their handles stay outstanding, so a stale Cancel hitting a recycled
// event would cancel some chain's step and leave it incomplete.
func TestKernelStressManyChains(t *testing.T) {
	k := New()
	rnd := stressRand(1)
	var completed, spawned, cancelled int
	var stale []Handle
	var chain func(depth int)
	chain = func(depth int) {
		steps := 0
		var step func()
		step = func() {
			// Re-cancel every handle already cancelled: all are stale now.
			for _, h := range stale {
				k.Cancel(h)
			}
			if steps++; steps > 20 {
				completed++
				return
			}
			switch rnd.intn(3) {
			case 0:
				k.Schedule(Time(rnd.intn(50))/10, step)
			case 1:
				if depth < 2 {
					spawned++
					chain(depth + 1)
				}
				k.Schedule(0.1, step)
			case 2:
				e := k.Schedule(5, func() { t.Error("cancelled timer fired") })
				k.Schedule(0.05, func() {
					k.Cancel(e)
					cancelled++
					if len(stale) < 64 {
						stale = append(stale, e)
					}
					step()
				})
			}
		}
		k.Schedule(0, step)
	}
	const roots = 200
	for i := 0; i < roots; i++ {
		chain(0)
	}
	k.Run(EndOfTime)

	if completed != roots+spawned {
		t.Fatalf("completed = %d, want %d roots + %d spawned", completed, roots, spawned)
	}
	if cancelled == 0 || spawned == 0 {
		t.Fatalf("stress schedule never exercised cancel (%d) or spawn (%d)", cancelled, spawned)
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events left on the calendar", k.Pending())
	}
}
