package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// A reference operation measures how fast the machine runs at the
// moment. The benchmark runs on a VM shared with other tenants, whose
// speed drifts by up to 2x in phases of seconds to minutes, most for
// memory-bound code: between runs of one commit an operation's latency
// moved by 10-40%, and any statistic of it with it. So the gated
// latency is a ratio: the fast end of the workload's latencies over
// the fast end of the times of a fixed reference operation, run in the
// same process and interleaved with the workload, so that both see the
// same phases. A reference operation runs only standard library code
// and the kernels below, so a change to fgbsd cannot move it.
//
// Code slows by different factors in a slow phase: a map-heavy kernel
// by up to 2x, floating-point arithmetic by up to 14%. No one kernel
// followed every workload, so the reference operation runs five, of
// the kinds of work a request does, back to back (README.md has the
// measurements).

// refShare sets how much of a window goes to reference operations:
// about 1/refShare of it on every workload.
const refShare = 20

// refRow is one row of the JSON kernels' table, shaped like the rows
// of a selection answer: a name, a count, measurements and labels.
type refRow struct {
	Name   string    `json:"name"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
	Tags   []string  `json:"tags"`
}

// refTable is the JSON kernels' input: 40 rows, about 10KB of JSON.
var refTable = func() []refRow {
	rows := make([]refRow, 40)
	for i := range rows {
		rows[i] = refRow{Name: fmt.Sprintf("codelet_%d", i), N: 31 * i, Tags: []string{"stencil", "fp64", "inapp"}}
		for j := 0; j < 12; j++ {
			rows[i].Values = append(rows[i].Values, float64(i*j)/7.3+0.125)
		}
	}
	return rows
}()

// refMeter runs and times the reference operations of one goroutine.
type refMeter struct {
	debt int64     // ns of reference work owed
	durs []float64 // reference operation times, ms
	buf  bytes.Buffer
	enc  *json.Encoder // writes to buf
	sink float64       // keeps the kernels' results live
}

func newRefMeter() *refMeter {
	r := &refMeter{}
	r.enc = json.NewEncoder(&r.buf)
	return r
}

// op is one reference operation, about 0.85ms on a 2.1GHz Xeon: the
// five kernels, each taking from a tenth to two fifths of it.
func (r *refMeter) op() {
	r.encode()
	r.sink += refMap()
	r.sink += refRoundTrip()
	r.sink += refCacheModel()
	r.sink += refArith()
}

// encode encodes refTable with a reused encoder into a reused buffer,
// the way a handler writes its answer.
func (r *refMeter) encode() {
	r.buf.Reset()
	_ = r.enc.Encode(refTable) // a fixed table of strings and numbers always encodes
}

// refRoundTrip encodes refTable to JSON and decodes it back.
func refRoundTrip() float64 {
	b, _ := json.Marshal(refTable) // a fixed table of strings and numbers always encodes
	var back []refRow
	_ = json.Unmarshal(b, &back) // and decodes
	return float64(len(back))
}

// refMap fills a map from 512 formatted keys to byte slices of 64 to
// 127 bytes, then walks it, updating every entry.
func refMap() float64 {
	m := make(map[string][]byte)
	for i := 0; i < 512; i++ {
		m[fmt.Sprintf("key-%d-suffix", i)] = make([]byte, 64+i%64)
	}
	n := 0
	for k, v := range m {
		m[k] = v[:len(k)]
		n += len(k)
	}
	return float64(n)
}

// refCacheModel runs 6000 pseudo-random addresses through a 4-way,
// 256-set LRU cache model, the shape of the simulator's inner loop,
// over freshly allocated tag and data arrays.
func refCacheModel() float64 {
	const sets, ways = 256, 4
	tags := make([]int64, sets*ways)
	data := make([]int64, 4096)
	for i := range data {
		data[i] = int64(i * 7)
	}
	x := uint64(12345)
	var hits int64
	for n := 0; n < 6000; n++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := int64(x>>33) % (1 << 20)
		line := addr >> 6
		row := tags[(line%sets)*ways:][:ways]
		way := ways - 1
		for w, t := range row {
			if t == line+1 {
				way = w
				hits++
				break
			}
		}
		copy(row[1:way+1], row[:way])
		row[0] = line + 1
		hits += data[addr%int64(len(data))] & 1
	}
	return float64(hits)
}

// refArith is 60000 steps of a floating-point recurrence.
func refArith() float64 {
	x := 1.0
	for i := 0; i < 60000; i++ {
		x = x*1.0000001 + 0.5/x
	}
	return x
}

// refAllocs returns what one reference operation allocates, in objects
// and bytes, so the go.* per-layer metrics can count the server alone.
// It must run while nothing else allocates. Its first operation also
// builds what encoding/json caches, so no timed operation pays for
// that.
func refAllocs() (mallocs, bytes float64) {
	const n = 8
	r := newRefMeter()
	r.op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// run runs and times one reference operation and returns its time, ns.
func (r *refMeter) run(p *phase) int64 {
	start := p.clock()
	r.op()
	took := p.clock() - start
	r.durs = append(r.durs, float64(took)/1e6)
	return took
}

// after owes d/refShare of reference work for an operation that took d
// ns and runs reference operations until the debt is paid. Warm clients
// and restarts call it between operations.
func (r *refMeter) after(p *phase, d int64) {
	r.debt += d / refShare
	for r.debt > 0 {
		r.debt -= r.run(p)
	}
}

// during runs reference operations until ctx ends, pausing after each
// for refShare-1 times its length. A cold iteration keeps both cores
// busy for seconds, and a block of reference operations after it
// would sample the machine at another moment: in 8 runs that left the
// ratio's spread at 10-19%, against 6% with the operations spread
// over the build.
func (r *refMeter) during(p *phase, ctx context.Context) {
	for ctx.Err() == nil {
		pause(ctx, time.Duration(r.run(p)*(refShare-1)))
	}
}
