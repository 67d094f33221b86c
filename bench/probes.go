package main

import (
	"fmt"
	"hash/crc32"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lesslog/internal/msg"
	"lesslog/internal/netnode"
	"lesslog/internal/routehint"
	"lesslog/internal/store"
	"lesslog/internal/stream"
	"lesslog/internal/transport"
	"lesslog/internal/wal"
)

// probeBudget is how long one isolated probe loops, as a share of -seconds.
const probeBudget = 0.01

// perCall runs f in a loop for about budget (at least minCalls times, at
// most maxCalls if that is positive) and returns the mean time and heap
// allocations per call. The fabric is idle while a probe runs, so the
// allocation count is the probe's own.
func perCall(budget time.Duration, minCalls, maxCalls int, f func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	calls := 0
	for calls < minCalls || (time.Since(start) < budget && (maxCalls <= 0 || calls < maxCalls)) {
		f()
		calls++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// probeLayers times each layer alone, through its public functions, at the
// workload's payload size and name count.
func probeLayers(m map[string]float64, st *state, f *fabric, tr *transport.Transport, opt options) error {
	budget := time.Duration(opt.seconds * probeBudget * float64(time.Second))
	probeMsg(m, st, budget)
	probeRoutehint(m, st, budget)
	probeStore(m, st, budget)
	if err := probeEcho(m, st, budget); err != nil {
		return fmt.Errorf("transport echo probe: %w", err)
	}
	if err := probeWAL(m, st, filepath.Join(f.dataDir, "probe-wal"), budget); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := probeFrameGet(m, st, f, tr, budget); err != nil {
		return fmt.Errorf("frame get probe: %w", err)
	}
	if err := probePut(m, st, f, tr, budget); err != nil {
		return fmt.Errorf("stream put probe: %w", err)
	}
	if err := probeGatewayFill(m, st, f, tr); err != nil {
		return fmt.Errorf("gateway fill probe: %w", err)
	}
	return nil
}

// chunk is the most of a payload one frame of the chunk plane carries.
func chunk(st *state) []byte {
	return st.variants[0].buf[:min(st.spec.size, stream.DefaultChunkSize)]
}

// probeMsg runs the workload's own frames through the codec: the get and
// the update exchange, weighted by the workload's get/update mix. A gateway
// workload's frames are a plain get and a whole-frame update; a locate
// workload reads by ranged fetch and, over one frame, writes by staged put.
func probeMsg(m map[string]float64, st *state, budget time.Duration) {
	sp := st.spec
	name := st.names[0]
	body := chunk(st)
	crc := crc32.Checksum(body, castagnoli)
	getReq := &msg.Request{Kind: msg.KindGet, Name: name}
	getResp := &msg.Response{OK: true, ServedBy: 3, Hops: 1, Version: 7, Data: body}
	updReq := &msg.Request{Kind: msg.KindUpdate, Name: name, Data: body}
	updResp := &msg.Response{OK: true, Hops: 2, Version: 8}
	if !sp.gatewayEdge {
		fr, _ := msg.AppendFetchReq(nil, msg.FetchReq{Length: uint32(len(body))})
		fresp, _ := msg.AppendFetchResp(nil, &msg.FetchResp{
			TotalSize: uint64(sp.size), FileCRC: crc, ChunkCRC: crc, Chunk: body,
		})
		getReq = &msg.Request{Kind: msg.KindFetch, Name: name, Version: 7, Data: fr}
		getResp = &msg.Response{OK: true, ServedBy: 3, Version: 7, Data: fresp}
		if sp.size > msg.MaxData {
			pr, _ := msg.AppendPutReq(nil, &msg.PutReq{
				Op: msg.PutData, Token: 1, TotalSize: uint64(sp.size), FileCRC: crc, ChunkCRC: crc, Chunk: body,
			})
			updReq = &msg.Request{Kind: msg.KindPut, Name: name, Data: pr}
		}
	}
	getShare := sp.mix[opGet] / (sp.mix[opGet] + sp.mix[opUpdate])
	mix := func(get, update float64) float64 { return getShare*get + (1-getShare)*update }

	var buf []byte
	codec := func(req *msg.Request, resp *msg.Response) (times [4]float64, allocs, overhead float64) {
		reqFrame, _ := msg.AppendRequest(nil, req)
		respFrame, _ := msg.AppendResponse(nil, resp)
		var a [4]float64
		times[0], a[0] = perCall(budget/8, 16, 0, func() { buf, _ = msg.AppendRequest(buf[:0], req) })
		times[1], a[1] = perCall(budget/8, 16, 0, func() { msg.DecodeRequest(reqFrame) })
		times[2], a[2] = perCall(budget/8, 16, 0, func() { buf, _ = msg.AppendResponse(buf[:0], resp) })
		times[3], a[3] = perCall(budget/8, 16, 0, func() { msg.DecodeResponse(respFrame) })
		overhead = float64(len(reqFrame) + len(respFrame) - len(body))
		return times, a[0] + a[1] + a[2] + a[3], overhead
	}
	gt, ga, gOver := codec(getReq, getResp)
	ut, ua, uOver := codec(updReq, updResp)
	for i, metric := range []string{"msg.encode_req_ns", "msg.decode_req_ns", "msg.encode_resp_ns", "msg.decode_resp_ns"} {
		m[metric] = mix(gt[i], ut[i])
	}
	m["msg.allocs_per_roundtrip"] = mix(ga, ua)
	m["msg.wire_overhead_bytes"] = mix(gOver, uOver)
}

// probeRoutehint times direct Cache calls with the workload's name count
// pressing on the default capacity.
func probeRoutehint(m map[string]float64, st *state, budget time.Duration) {
	cache := routehint.New(0, 0)
	set := []routehint.Hint{{PID: 1, Addr: "127.0.0.1:7001", Version: 1}, {PID: 5, Addr: "127.0.0.1:7005"}}
	names := st.names[:st.spec.names]
	for _, n := range names {
		cache.PutSet(n, set)
	}
	i := 0
	next := func() string { i = (i + 1) % len(names); return names[i] }
	m["routehint.putset_ns"], _ = perCall(budget/2, 1024, 0, func() { cache.PutSet(next(), set) })
	m["routehint.getset_ns"], _ = perCall(budget/2, 1024, 0, func() { cache.GetSet(next()) })
}

// probeStore times a 16-shard store holding the workload's names at the
// workload's size.
func probeStore(m map[string]float64, st *state, budget time.Duration) {
	s := store.NewSharded(store.DefaultShards)
	names := st.names[:st.spec.names]
	data := st.variants[0].buf
	for _, n := range names {
		s.Put(store.File{Name: n, Data: data, Version: 1}, store.Inserted)
	}
	i, version := 0, uint64(1)
	next := func() string { i = (i + 1) % len(names); return names[i] }
	m["store.get_ns"], _ = perCall(budget/3, 1024, 0, func() { s.Get(next()) })
	m["store.putnewer_ns"], _ = perCall(budget/3, 1024, 0, func() {
		version++
		s.PutNewer(store.File{Name: next(), Data: data, Version: version}, store.Inserted)
	})
	m["store.update_ns"], _ = perCall(budget/3, 1024, 0, func() {
		version++
		s.Update(next(), data, version)
	})
}

// probeEcho times Transport.Do against a transport.ServeLoop echo handler
// with one frame of the workload's payload: the transport alone, no peer.
func probeEcho(m map[string]float64, st *state, budget time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				transport.ServeLoop(conn, func(req *msg.Request) *msg.Response {
					return &msg.Response{OK: true, Data: req.Data}
				}, transport.ServeLoopOptions{})
			}()
		}
	}()
	tr := transport.New(transport.Config{}, nil)
	req := &msg.Request{Kind: msg.KindGet, Name: st.names[0], Data: chunk(st)}
	var doErr error
	ns, allocs := perCall(budget, 32, 0, func() {
		if _, err := tr.Do(ln.Addr().String(), req); err != nil {
			doErr = err
		}
	})
	tr.Close() // ends the served connections, so the accept loop's children return
	ln.Close()
	wg.Wait()
	m["transport.echo_rtt_us"], m["transport.echo_allocs"] = ns/1e3, allocs
	return doErr
}

// probeWAL appends the workload's records to a private engine, syncs, and
// replays what it wrote. A record over the log's payload cap is refused by
// the engine without an error, so such a workload replays nothing.
func probeWAL(m map[string]float64, st *state, dir string, budget time.Duration) error {
	eng, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return err
	}
	data := st.variants[0].buf
	i := 0
	// Enough records to time, not so many that the probe outweighs the window.
	ns, _ := perCall(budget, 8, max(8, (64<<20)/len(data)), func() {
		i++
		eng.PersistPut(store.File{Name: st.names[i%st.spec.names], Data: data, Version: uint64(i)}, store.Inserted)
	})
	m["wal.append_us"] = ns / 1e3
	t0 := time.Now()
	if err := eng.Sync(); err != nil {
		return err
	}
	m["wal.sync_ms"] = float64(time.Since(t0)) / 1e6
	logged := eng.Stats().Appends.Load()
	if err := eng.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	eng, _, err = wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return err
	}
	m["wal.replay_mib_s"] = float64(logged) * float64(len(data)) / (1 << 20) / time.Since(t0).Seconds()
	return eng.Close()
}

// atHolders locates the holder of one name after another (at least four,
// then until budget is spent) and returns how long call took at each.
func atHolders(st *state, f *fabric, tr *transport.Transport, budget time.Duration, call func(i int, holder string) error) ([]int64, error) {
	entry := f.peers[0].Addr()
	var lat []int64
	start := time.Now()
	for i := 0; i < st.spec.names && (i < 4 || time.Since(start) < budget); i++ {
		set, err := locateSet(tr, entry, st.names[i])
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := call(i, set[0].Addr); err != nil {
			return nil, fmt.Errorf("%s: %w", st.names[i], err)
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	return lat, nil
}

// probePut times Uploader.Put of the workload's payload straight at each
// name's holder: the staged write plane alone, whatever size the workload's
// own updates need before they use it.
func probePut(m map[string]float64, st *state, f *fabric, tr *transport.Transport, budget time.Duration) error {
	up := stream.NewUploader(tr, stream.Config{})
	lat, err := atHolders(st, f, tr, budget, func(i int, holder string) error {
		_, err := up.Put(holder, st.names[i], st.payload(i, 0), msg.PutUpdate)
		if err == nil {
			st.seq[i]++
		}
		return err
	})
	m["stream.put_ms"] = quantileMS(lat, 0.5)
	return err
}

// probeFrameGet times a whole-frame local-only get at each name's holder,
// the single-frame read the chunk plane replaced: against stream.fetch_ms it
// is the chunked-vs-frame gap. Over one frame there is no such read.
func probeFrameGet(m map[string]float64, st *state, f *fabric, tr *transport.Transport, budget time.Duration) error {
	if st.spec.size > msg.MaxData {
		m["holder.frame_get_ms"] = 0
		return nil
	}
	lat, err := atHolders(st, f, tr, budget, func(i int, holder string) error {
		resp, err := tr.Do(holder, &msg.Request{Kind: msg.KindGet, Flags: msg.FlagLocalOnly, Name: st.names[i]})
		if err := respErr(resp, err); err != nil {
			return err
		}
		return st.verify(i, resp.Data)
	})
	m["holder.frame_get_ms"] = quantileMS(lat, 0.5)
	return err
}

// fillProbeNames is how many never-read 1 MiB names the gateway fills.
const fillProbeNames = 8

// probeGatewayFill times in-process Gateway.Get of never-read 1 MiB names:
// the gateway's own chunk ladder (locate-set, then a one-chunk fetch), which
// the wire edge cannot reach above one frame.
func probeGatewayFill(m map[string]float64, st *state, f *fabric, tr *transport.Transport) error {
	c := netnode.NewClientWith(f.peers[0].Addr(), tr)
	payload := make([]byte, 1<<20)
	var lat []int64
	for i := 0; i < fillProbeNames; i++ {
		name := fmt.Sprintf("%s/fill/%d", st.spec.name, i)
		if err := c.Insert(name, payload); err != nil {
			return err
		}
		t0 := time.Now()
		res, err := f.gw.Get(name)
		if err != nil {
			return fmt.Errorf("get %s: %w", name, err)
		}
		lat = append(lat, int64(time.Since(t0)))
		if len(res.Data) != len(payload) {
			return fmt.Errorf("get %s: %d bytes, want %d", name, len(res.Data), len(payload))
		}
	}
	m["gateway.fill_1m_ms"] = quantileMS(lat, 0.5)
	return nil
}
