package server

import (
	"fmt"
	"strings"
	"testing"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/store/disk"
	"rover/internal/urn"
	"rover/internal/wire"
)

// BenchmarkExportReplay is the "rscript replay at the server" stage of a
// commit on its own: applyExport on an object already in hand, base version
// current — a Restricted environment built over the object's code and one
// shipped `add 1` replayed in it. No store, journal or wire.
func BenchmarkExportReplay(b *testing.B) {
	srv, err := New(Config{Engine: qrpc.NewServer(qrpc.ServerConfig{ServerID: "bench"})})
	if err != nil {
		b.Fatal(err)
	}
	obj := counter("replay")
	args := &proto.ExportArgs{
		URN:     obj.URN,
		BaseVer: obj.Version,
		Invs:    []rdo.Invocation{{Object: obj.URN, Method: "add", Args: []string{"1"}}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, commit, err := srv.applyExport("bench-cli", obj, obj.Version, args)
		if err != nil || !commit || rep.Outcome != proto.OutcomeCommitted {
			b.Fatalf("applyExport: %+v, commit=%v, err=%v", rep, commit, err)
		}
	}
}

// TestExportReplayAllocs pins BenchmarkExportReplay's stage: the Env, with
// its interpreter inside it; the operation it records; the new count as a
// string; and the reply.
func TestExportReplayAllocs(t *testing.T) {
	srv, err := New(Config{Engine: qrpc.NewServer(qrpc.ServerConfig{ServerID: "allocs"})})
	if err != nil {
		t.Fatal(err)
	}
	obj := counter("replay")
	obj.Set("count", "100")
	args := &proto.ExportArgs{
		URN:     obj.URN,
		BaseVer: obj.Version,
		Invs:    []rdo.Invocation{{Object: obj.URN, Method: "add", Args: []string{"1"}}},
	}
	n := testing.AllocsPerRun(100, func() {
		if _, commit, err := srv.applyExport("allocs-cli", obj, obj.Version, args); err != nil || !commit {
			t.Fatalf("applyExport: commit=%v, err=%v", commit, err)
		}
	})
	if n > 4 {
		t.Errorf("replaying one shipped operation allocates %v objects, want at most 4", n)
	}
}

// BenchmarkDeltaImport is a revalidating client's import from a disk store:
// handleImport for an object of about 400 B that 40 ops commits have
// advanced, from a client k versions behind, cycling over 128 such objects
// that all stay in the store's cache. k = 1 and 8 are answered with a
// delta; at k = 32 the delta is larger than the object, which ships whole,
// but the store's OpsSince is asked all the same.
func BenchmarkDeltaImport(b *testing.B) {
	const objects, commits = 128, 40
	st, err := disk.Open(disk.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{Engine: qrpc.NewServer(qrpc.ServerConfig{ServerID: "bench"}), Store: st})
	if err != nil {
		b.Fatal(err)
	}
	urns := make([]urn.URN, objects)
	for i := range urns {
		o := counter(fmt.Sprintf("delta/%03d", i))
		o.Set("pad", strings.Repeat("x", 200))
		if err := st.Create(o); err != nil {
			b.Fatal(err)
		}
		urns[i] = o.URN
		for range commits {
			cur, err := st.Get(o.URN)
			if err != nil {
				b.Fatal(err)
			}
			inv := rdo.Invocation{Object: o.URN, Method: "add", Args: []string{"1"}, BaseVer: cur.Version}
			if err := srv.replay(cur, []rdo.Invocation{inv}); err != nil {
				b.Fatal(err)
			}
			if _, err := st.CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "cli"); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, k := range []uint64{1, 8, 32} {
		reqs := make([]qrpc.Request, objects)
		for i, u := range urns {
			reqs[i] = qrpc.Request{Service: proto.SvcImport,
				Args: wire.Marshal(&proto.ImportArgs{URN: u, HaveVersion: 1 + commits - k})}
		}
		res, err := srv.handleImport("bench-cli", reqs[0])
		var rep proto.ImportReply
		if err == nil {
			err = wire.Unmarshal(res, &rep)
		}
		if err != nil || rep.Delta != (k < 32) {
			b.Fatalf("k=%d: delta=%v, %v", k, rep.Delta, err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := srv.handleImport("bench-cli", reqs[i%objects]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
