package server

import (
	"testing"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
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
