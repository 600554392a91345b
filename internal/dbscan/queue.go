package dbscan

// The paper (§III-B) spends a section on the choice of Java Queue
// implementation (LinkedList vs ArrayList vs Vector) because DBSCAN's
// expansion loop performs exactly as many removes as adds. In Go the
// natural analogue is a growable ring buffer. The LinkedList and
// pop-front-slice arms it was measured against are recorded in
// EXPERIMENTS.md (data-structure ablations).

// Queue is a FIFO of point indices backed by a growable ring buffer.
// The zero value is an empty queue.
type Queue struct {
	buf        []int32
	head, tail int // tail is the next write slot; head the next read
	size       int
}

// Len returns the number of queued elements.
func (q *Queue) Len() int { return q.size }

// Empty reports whether the queue has no elements.
func (q *Queue) Empty() bool { return q.size == 0 }

// Reset empties the queue, retaining capacity.
func (q *Queue) Reset() { q.head, q.tail, q.size = 0, 0, 0 }

// Push appends v to the back of the queue.
func (q *Queue) Push(v int32) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = v
	q.tail++
	if q.tail == len(q.buf) {
		q.tail = 0
	}
	q.size++
}

// Pop removes and returns the front element. It panics on an empty
// queue; callers guard with Empty.
func (q *Queue) Pop() int32 {
	if q.size == 0 {
		panic("dbscan: Pop from empty queue")
	}
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	return v
}

func (q *Queue) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 64
	}
	nb := make([]int32, newCap)
	if q.head < q.tail {
		copy(nb, q.buf[q.head:q.tail])
	} else if q.size > 0 {
		n := copy(nb, q.buf[q.head:])
		copy(nb[n:], q.buf[:q.tail])
	}
	q.buf = nb
	q.head = 0
	q.tail = q.size
}
