package main

import (
	"context"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "server.submissions", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "store.submit", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "store.submit", Start: 20, End: 50},   // overlaps span 2
		{ID: 4, Parent: 1, Name: "store.dataset", Start: 90, End: 120}, // clipped at 100
		{ID: 5, Parent: 2, Name: "wal.fsync", Start: 12, End: 18},      // grandchild
		{ID: 6, Name: "client.submit", Start: 0, End: 7},               // leaf root
	}
	got := selfTimes(spans)
	want := map[uint64]int64{
		1: 100 - (40 + 10), // children cover [10,50] and [90,100]
		2: 20 - 6,
		3: 30,
		4: 30,
		5: 6,
		6: 7,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
}

func TestSelfTimeOfFullyCoveredParentIsZero(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 5, End: 15},
		{ID: 2, Parent: 1, Start: 0, End: 10},
		{ID: 3, Parent: 1, Start: 10, End: 20},
	}
	if got := selfTimes(spans)[1]; got != 0 {
		t.Fatalf("self = %d, want 0", got)
	}
}

func TestSpansShareTheRequestID(t *testing.T) {
	rec := newRecorder()
	ctx, root := rec.start(context.Background(), "client.submit")
	_, child := rec.start(ctx, "client.rt")
	child.end(nil, 0)
	root.end(nil, 1)
	spans := rec.snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Parent != r.ID || c.Req != r.ID || r.Req != r.ID || r.Parent != 0 {
		t.Fatalf("child %+v, root %+v: want child parented to root and one request ID", c, r)
	}
	var nilRec *recorder
	if _, a := nilRec.start(context.Background(), "x"); a != nil {
		t.Fatal("a nil recorder must not open spans")
	}
}
