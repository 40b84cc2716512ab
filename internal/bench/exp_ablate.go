package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rover/internal/qrpc"
	"rover/internal/stable"
	"rover/internal/transport"
)

// logEnqueueRun measures N enqueues against a real file log with the given
// options, spread over `workers` concurrent goroutines (1 = serial),
// returning elapsed wall time, bytes written, and fsync count. Concurrency
// is what group commit amortizes: concurrent appenders coalesce onto a
// shared in-flight fsync, so the same N enqueues cost far fewer flushes.
func logEnqueueRun(n, payloadBytes, workers int, opts stable.Options, compressible bool) (time.Duration, int64, int64, error) {
	dir, err := os.MkdirTemp("", "rover-ablate")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	fl, err := stable.OpenFileLog(filepath.Join(dir, "wal"), opts)
	if err != nil {
		return 0, 0, 0, err
	}
	defer fl.Close()
	eng, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "ablate", Log: fl})
	if err != nil {
		return 0, 0, 0, err
	}
	payload := make([]byte, payloadBytes)
	if compressible {
		copy(payload, []byte(strings.Repeat("rover rover ", payloadBytes/12+1)))
	} else {
		// xorshift PRNG: statistically incompressible content.
		x := uint64(0x9E3779B97F4A7C15)
		for i := range payload {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			payload[i] = byte(x)
		}
	}
	if workers < 1 {
		workers = 1
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		share := n / workers
		if w < n%workers {
			share++
		}
		wg.Add(1)
		go func(share int) {
			defer wg.Done()
			for i := 0; i < share; i++ {
				if _, err := eng.Enqueue("bench.echo", payload, qrpc.PriorityNormal, 0); err != nil {
					errs <- err
					return
				}
			}
		}(share)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	select {
	case err := <-errs:
		return 0, 0, 0, err
	default:
	}
	st := fl.Stats()
	return elapsed, st.BytesWritten, st.Syncs, nil
}

// ExpACompress measures the log compression the paper's prototype omitted
// ("it does not perform any compression on the log").
func ExpACompress(o Options) (*Table, error) {
	n := o.scale(300, 20)
	const payload = 1024
	var rows [][]string
	for _, mode := range []struct {
		name     string
		compress bool
		comp     bool
	}{
		{"no compression (paper prototype)", false, true},
		{"flate, compressible payload", true, true},
		{"flate, incompressible payload", true, false},
	} {
		elapsed, bytes, _, err := logEnqueueRun(n, payload, 1, stable.Options{Compress: mode.compress}, mode.comp)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			mode.name,
			fmt.Sprintf("%.1f µs", float64(elapsed.Nanoseconds())/float64(n)/1000),
			kb(bytes),
		})
	}
	return &Table{
		ID:       "ACOMPRESS",
		Title:    fmt.Sprintf("Ablation: stable-log compression (%d enqueues, 1 KiB payloads, fsync on)", n),
		Columns:  []string{"mode", "enqueue latency (each)", "log bytes written"},
		Volatile: []int{1},
		Rows:     rows,
		Notes:    []string{"compression trades CPU on the critical path for log (and modem, if logs are shipped) bytes"},
	}, nil
}

// ExpAGroup measures the group commit the paper cites as the stable-store
// optimization its prototype omitted. The modern protocol never weakens
// durability: concurrent appenders coalesce onto one in-flight fsync, so
// the win appears under concurrency while a lone appender still pays one
// flush per enqueue. NoSync bounds what eliminating the flush entirely
// would buy (unsafely).
func ExpAGroup(o Options) (*Table, error) {
	n := o.scale(300, 20)
	const payload = 128
	var rows [][]string
	for _, mode := range []struct {
		name    string
		workers int
		opts    stable.Options
	}{
		{"fsync per append, 1 appender (paper prototype)", 1, stable.Options{}},
		{"group commit, 8 concurrent appenders", 8, stable.Options{}},
		{"no sync (unsafe bound)", 1, stable.Options{NoSync: true}},
	} {
		elapsed, _, syncs, err := logEnqueueRun(n, payload, mode.workers, mode.opts, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			mode.name,
			fmt.Sprintf("%.1f µs", float64(elapsed.Nanoseconds())/float64(n)/1000),
			fmt.Sprintf("%.0f/s", float64(n)/elapsed.Seconds()),
			fmt.Sprintf("%d", syncs),
		})
	}
	return &Table{
		ID:       "AGROUP",
		Title:    fmt.Sprintf("Ablation: group commit on the QRPC enqueue path (%d enqueues, every one durable)", n),
		Columns:  []string{"mode", "enqueue latency (each)", "throughput", "fsyncs"},
		Volatile: []int{1, 2, 3},
		Rows:     rows,
		Notes:    []string{"group commit coalesces concurrent appenders onto one in-flight fsync; durability is never deferred"},
	}, nil
}

// ExpABatch measures envelope batching on the store-and-forward mail
// transport (the paper's SMTP transport).
func ExpABatch(o Options) (*Table, error) {
	n := o.scale(100, 10)
	run := func(maxPerEnvelope int) (int64, int64, error) {
		cli, err := qrpc.NewClient(qrpc.ClientConfig{
			ClientID: "abatch",
			Log:      stable.NewMemLog(stable.Options{}),
		})
		if err != nil {
			return 0, 0, err
		}
		srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "abatch-srv"})
		srv.Register("bench.echo", func(_ string, req qrpc.Request) ([]byte, error) {
			return req.Args, nil
		})
		spool := transport.NewSpool(0)
		mc := transport.NewMailClient(spool, "c", "s", cli, nil)
		mc.MaxFramesPerEnvelope = maxPerEnvelope
		ms := transport.NewMailServer(spool, "s", srv)
		for i := 0; i < n; i++ {
			if _, err := cli.Enqueue("bench.echo", make([]byte, 64), qrpc.PriorityNormal, 0); err != nil {
				return 0, 0, err
			}
		}
		mc.Flush(0)
		ms.Poll(0)
		mc.Poll(0)
		mc.Flush(0) // carry the acks
		ms.Poll(0)
		st := spool.Stats()
		return st.Envelopes, st.Bytes, nil
	}
	batchedEnv, batchedBytes, err := run(0)
	if err != nil {
		return nil, err
	}
	singleEnv, singleBytes, err := run(1)
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "ABATCH",
		Title:   fmt.Sprintf("Ablation: e-mail transport batching (%d QRPCs + replies + acks)", n),
		Columns: []string{"mode", "envelopes", "bytes"},
		Rows: [][]string{
			{"batched (one envelope per flush)", fmt.Sprintf("%d", batchedEnv), kb(batchedBytes)},
			{"one request per envelope", fmt.Sprintf("%d", singleEnv), kb(singleBytes)},
		},
		Notes: []string{
			fmt.Sprintf("envelope overhead modeled at %d bytes of SMTP/RFC-822 framing", transport.EnvelopeOverheadBytes),
		},
	}, nil
}
