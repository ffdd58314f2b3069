package tcpnet

import (
	"testing"
)

// newTestQueue returns a host queue of a transport with the given
// QueueLen and no flusher, so the test plays the flusher's part.
func newTestQueue(t *testing.T, queueLen int) *hostq {
	t.Helper()
	tr, err := ListenConfig("127.0.0.1:0", Config{QueueLen: queueLen})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return newHostq(tr, "127.0.0.1:1")
}

// queued lists the first payload byte of every waiting frame, in order.
func queued(q *hostq) []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []byte
	for _, f := range q.frames[q.head:] {
		out = append(out, (*f.bp)[4])
	}
	return out
}

func enqueueN(t *testing.T, q *hostq, from, n, size int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		frame := make([]byte, size)
		frame[0] = byte(i)
		if err := q.enqueue(frame); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRequeueIntoRefilledQueue: a batch that failed to go out returns to
// the front in order; if senders refilled the queue while the flusher
// held it, the oldest of the batch are shed and counted, so the queue
// never holds more than QueueLen and requeued counts frames, not
// batches.
func TestRequeueIntoRefilledQueue(t *testing.T) {
	q := newTestQueue(t, 8)
	enqueueN(t, q, 0, 8, 16)
	if !q.take() || len(q.batch) != 8 {
		t.Fatalf("take moved %d frames, want 8", len(q.batch))
	}
	enqueueN(t, q, 8, 5, 16) // the queue refills behind the flusher
	q.requeue(q.batch)
	if got, want := string(queued(q)), "\x05\x06\x07\x08\x09\x0a\x0b\x0c"; got != want {
		t.Fatalf("queue after requeue = %x, want %x", got, want)
	}
	st := q.t.Stats()
	if st.Dropped != 5 || st.Requeued != 3 || st.Enqueued != 13 {
		t.Fatalf("stats = %+v, want Dropped 5, Requeued 3, Enqueued 13", st)
	}

	// With room, everything goes back, ahead of what arrived meanwhile.
	if !q.take() || len(q.batch) != 8 {
		t.Fatalf("take moved %d frames, want 8", len(q.batch))
	}
	enqueueN(t, q, 13, 1, 16)
	q.requeue(q.batch[6:]) // the first six went out before the write failed
	if got, want := string(queued(q)), "\x0b\x0c\x0d"; got != want {
		t.Fatalf("queue after partial requeue = %x, want %x", got, want)
	}
	if st := q.t.Stats(); st.Dropped != 5 || st.Requeued != 5 {
		t.Fatalf("stats = %+v, want Dropped 5, Requeued 5", st)
	}
}

// TestTakeCapsTheBatch: one flush is at most maxBatchFrames frames and
// maxBatchBytes bytes, and a frame above maxBatchBytes still goes out,
// alone.
func TestTakeCapsTheBatch(t *testing.T) {
	q := newTestQueue(t, 1024)
	enqueueN(t, q, 0, maxBatchFrames+10, 16)
	if !q.take() || len(q.batch) != maxBatchFrames {
		t.Fatalf("small frames: batch of %d, want %d", len(q.batch), maxBatchFrames)
	}
	recycle(q.batch)
	if !q.take() || len(q.batch) != 10 {
		t.Fatalf("small frames: second batch of %d, want 10", len(q.batch))
	}
	recycle(q.batch)

	const big = 100 << 10 // two fit under maxBatchBytes, three do not
	enqueueN(t, q, 0, 3, big)
	enqueueN(t, q, 3, 1, maxBatchBytes+1)
	for i, want := range []int{2, 1, 1} {
		if !q.take() || len(q.batch) != want {
			t.Fatalf("large frames: batch %d of %d, want %d", i, len(q.batch), want)
		}
		recycle(q.batch)
	}
	if n := len(queued(q)); n != 0 {
		t.Fatalf("%d frames left queued", n)
	}
}
