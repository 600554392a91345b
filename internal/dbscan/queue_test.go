package dbscan

import (
	"testing"
	"testing/quick"

	"sparkdbscan/internal/rng"
)

func TestFIFOOrder(t *testing.T) {
	q := &Queue{}
	for i := int32(0); i < 100; i++ {
		q.Push(i)
	}
	for i := int32(0); i < 100; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if !q.Empty() {
		t.Fatal("not empty after draining")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	q := &Queue{}
	var model []int32
	r := rng.New(42)
	for op := 0; op < 10000; op++ {
		if r.Intn(2) == 0 || len(model) == 0 {
			v := int32(r.Intn(1000))
			q.Push(v)
			model = append(model, v)
		} else {
			want := model[0]
			model = model[1:]
			if got := q.Pop(); got != want {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, want)
			}
		}
		if q.Len() != len(model) {
			t.Fatalf("Len = %d, want %d", q.Len(), len(model))
		}
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty did not panic")
		}
	}()
	(&Queue{}).Pop()
}

func TestRingWraparound(t *testing.T) {
	// Force the ring to wrap: push/pop cycles smaller than capacity.
	q := &Queue{}
	for cycle := 0; cycle < 50; cycle++ {
		for i := int32(0); i < 40; i++ {
			q.Push(i)
		}
		for i := int32(0); i < 40; i++ {
			if got := q.Pop(); got != i {
				t.Fatalf("cycle %d: got %d want %d", cycle, got, i)
			}
		}
	}
}

func TestRingGrowPreservesOrder(t *testing.T) {
	check := func(ops []int16) bool {
		q := &Queue{}
		var model []int32
		for _, op := range ops {
			if op >= 0 {
				q.Push(int32(op))
				model = append(model, int32(op))
			} else if len(model) > 0 {
				if q.Pop() != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		for _, want := range model {
			if q.Pop() != want {
				return false
			}
		}
		return q.Empty()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueReset(t *testing.T) {
	q := &Queue{}
	q.Push(1)
	q.Push(2)
	q.Reset()
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("Reset did not empty the queue")
	}
	q.Push(3)
	if q.Pop() != 3 {
		t.Fatal("queue unusable after Reset")
	}
}

func BenchmarkQueueRing(b *testing.B) {
	// DBSCAN's access pattern: bursts of pushes (a neighbourhood)
	// followed by interleaved pops.
	for i := 0; i < b.N; i++ {
		q := &Queue{}
		for round := 0; round < 100; round++ {
			for j := int32(0); j < 50; j++ {
				q.Push(j)
			}
			for j := 0; j < 50; j++ {
				q.Pop()
			}
		}
	}
}
