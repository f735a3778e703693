package potserve

import (
	"net"
	"slices"
	"testing"

	"potgo/internal/objstore"
	"potgo/internal/pmem"
)

// recordingBatcher is a BatchBackend over a KVBackend that records the size
// of every batch it is handed.
type recordingBatcher struct {
	KVBackend
	sizes []int
}

func (b *recordingBatcher) ExecBatch(reqs []Request, resps []Response) {
	b.sizes = append(b.sizes, len(reqs))
	for i := range reqs {
		b.Exec(&reqs[i], &resps[i])
	}
}

// TestServerGathersBurstForBatchBackend: a burst written in one go reaches
// a BatchBackend as batches, split around a frame that fails to decode;
// that frame is answered StatusErr in its place and every response comes
// back in request order.
func TestServerGathersBurstForBatchBackend(t *testing.T) {
	sh, err := pmem.NewSharded(pmem.NewStore(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := objstore.CreateKV(sh, "batch")
	if err != nil {
		t.Fatal(err)
	}
	be := &recordingBatcher{KVBackend: KVBackend{KV: kv}}
	s := &Server{backend: be, conns: make(map[net.Conn]struct{})}
	cs, ss := net.Pipe()
	s.wg.Add(1)
	go s.handle(ss)
	defer func() {
		cs.Close()
		s.wg.Wait()
	}()

	var burst []byte
	for _, req := range []Request{{Op: OpPut, Key: 1, Val: 10}, {Op: OpPut, Key: 2, Val: 20}} {
		if burst, err = AppendRequestFrame(burst, req); err != nil {
			t.Fatal(err)
		}
	}
	burst = append(burst, 0, 0, 0, 2, 0xff, 0) // a frame with an unknown opcode
	for _, req := range []Request{{Op: OpGet, Key: 1}, {Op: OpDel, Key: 3}, {Op: OpGet, Key: 2}} {
		if burst, err = AppendRequestFrame(burst, req); err != nil {
			t.Fatal(err)
		}
	}
	go cs.Write(burst)

	ops := []byte{OpPut, OpPut, OpPing, OpGet, OpDel, OpGet}
	want := []Response{
		{Status: StatusOK, Created: true},
		{Status: StatusOK, Created: true},
		{Status: StatusErr},
		{Status: StatusOK, Val: 10},
		{Status: StatusNotFound},
		{Status: StatusOK, Val: 20},
	}
	for i, op := range ops {
		frame, err := ReadFrame(cs)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		got, err := DecodeResponse(op, frame)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if got.Status != want[i].Status || got.Created != want[i].Created || got.Val != want[i].Val {
			t.Fatalf("response %d = %+v, want %+v", i, got, want[i])
		}
	}
	if !slices.Equal(be.sizes, []int{2, 3}) {
		t.Fatalf("batch sizes %v, want [2 3]", be.sizes)
	}
}
