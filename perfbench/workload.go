package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"spectm/internal/proto"
)

// opKind is one wire command type the workloads send.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opCAS
	opSwap2
	opMGet
	opScan
	opIScan
	numOps
)

var opNames = [numOps]string{"get", "set", "del", "cas", "swap2", "mget", "scan", "iscan"}

const (
	// idShift places a key's index in the high bits of every value the
	// benchmark writes, so a reply value names the key it belongs to.
	idShift = 40
	lowMask = 1<<idShift - 1
	// scanLimit is the SCAN/ISCAN result limit of range-scan.
	scanLimit = 32
	// indexName is the secondary index range-scan creates at set-up.
	indexName = "byval"
)

// workload is one traffic mix. The server receives only the commands a
// generator derives from it and the seed.
type workload struct {
	name string
	keys int
	zipf float64 // key skew exponent; 0 means uniform
	mix  [numOps]int
	// wal runs the server with -data-dir (default fsync policy) and
	// checks that a restart recovers exactly what was served.
	wal bool
	// index creates the byval secondary index during set-up.
	index bool
	// stable means no command moves or removes a key's value across
	// keys (no DEL, no SWAP2): every GET hits and every value carries
	// its own key's index, so replies are checked against their keys.
	stable bool
}

// workloads are the traffic mixes BENCHMARK.json declares; the README
// and BENCHMARK.json say why each was chosen.
var workloads = []*workload{
	{
		name: "write-wal",
		keys: 10_000,
		zipf: 1.1,
		mix:  [numOps]int{opGet: 20, opSet: 50, opDel: 10, opCAS: 10, opSwap2: 10},
		wal:  true,
	},
	{
		name:   "range-scan",
		keys:   100_000,
		mix:    [numOps]int{opGet: 50, opSet: 15, opMGet: 5, opScan: 20, opIScan: 10},
		index:  true,
		stable: true,
	},
}

// ungated are workloads that run the same way but are not declared in
// BENCHMARK.json. point-read's p50_us is bimodal on a shared host (see
// the README), too wide a spread between runs to gate.
var ungated = []*workload{
	{
		name:   "point-read",
		keys:   100_000,
		mix:    [numOps]int{opGet: 90, opSet: 10},
		stable: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range slices.Concat(workloads, ungated) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// keyName is key i's wire name; zero padding makes byte order numeric.
func keyName(i int) string { return fmt.Sprintf("key-%08d", i) }

// keyIndex inverts keyName.
func keyIndex(b []byte) (int, bool) {
	if len(b) != 12 || string(b[:4]) != "key-" {
		return 0, false
	}
	n := 0
	for _, c := range b[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// initialValue is what set-up stores under key i.
func initialValue(i int) uint64 { return uint64(i) << idShift }

// ownedBy reports whether v carries key i's index.
func ownedBy(v uint64, i int) bool { return v>>idShift == uint64(i) }

// indexKey is the byval index key of v (the server's "value" kind).
func indexKey(v uint64) string { return fmt.Sprintf("%016x", v) }

// command is one generated command.
type command struct {
	kind  opKind
	nkeys uint8
	keys  [3]int32
	val   uint64 // SET value; CAS new value
	old   uint64 // CAS expected value
}

// generator makes one connection's command stream. The op kinds, keys
// and written values are a function of the seed alone; a CAS carries
// the value this connection last saw for its key, so its expected value
// follows the replies (observe).
type generator struct {
	w    *workload
	r    *rand.Rand
	z    *rand.Zipf
	mget bool // alternates 2-key and 3-key MGETs
	// seen[i] is 1 + the value this connection last saw under key i,
	// 0 when unknown.
	seen []uint64
}

func newGenerator(w *workload, seed uint64, stream int) *generator {
	g := &generator{
		w:    w,
		r:    rand.New(rand.NewPCG(seed, uint64(stream)+0x9e3779b97f4a7c15)),
		seen: make([]uint64, w.keys),
	}
	if w.zipf > 0 {
		g.z = rand.NewZipf(g.r, w.zipf, 1, uint64(w.keys-1))
	}
	for i := range g.seen {
		g.seen[i] = initialValue(i) + 1
	}
	return g
}

func (g *generator) key() int32 {
	if g.z != nil {
		return int32(g.z.Uint64())
	}
	return int32(g.r.IntN(g.w.keys))
}

// otherKey draws a key distinct from k.
func (g *generator) otherKey(k int32) int32 {
	for {
		if o := g.key(); o != k {
			return o
		}
	}
}

func (g *generator) freshValue(k int32) uint64 {
	return initialValue(int(k)) | g.r.Uint64()&lowMask
}

// next draws the next command.
func (g *generator) next() command {
	p := g.r.IntN(100)
	kind := opKind(0)
	for ; kind < numOps; kind++ {
		if p < g.w.mix[kind] {
			break
		}
		p -= g.w.mix[kind]
	}
	c := command{kind: kind, nkeys: 1}
	c.keys[0] = g.key()
	switch kind {
	case opSet:
		c.val = g.freshValue(c.keys[0])
	case opCAS:
		c.val = g.freshValue(c.keys[0])
		if s := g.seen[c.keys[0]]; s != 0 {
			c.old = s - 1
		} else {
			c.old = initialValue(int(c.keys[0]))
		}
	case opSwap2:
		c.nkeys = 2
		c.keys[1] = g.otherKey(c.keys[0])
	case opMGet:
		c.nkeys = 2
		c.keys[1] = g.otherKey(c.keys[0])
		if g.mget {
			c.nkeys = 3
			c.keys[2] = g.otherKey(c.keys[0])
			for c.keys[2] == c.keys[1] {
				c.keys[2] = g.otherKey(c.keys[0])
			}
		}
		g.mget = !g.mget
	}
	return c
}

// observe feeds a command's outcome back: found/val for GET, ok for the
// conditional writes.
func (g *generator) observe(c *command, ok bool, val uint64) {
	k := c.keys[0]
	switch c.kind {
	case opGet:
		if ok {
			g.seen[k] = val + 1
		} else {
			g.seen[k] = 0
		}
	case opSet:
		g.seen[k] = c.val + 1
	case opCAS:
		if ok {
			g.seen[k] = c.val + 1
		} else {
			g.seen[k] = 0
		}
	case opDel:
		g.seen[k] = 0
	case opSwap2:
		g.seen[k], g.seen[c.keys[1]] = 0, 0
	}
}

// encode writes c to wr as a wire command.
func encode(wr *proto.Writer, kt *keyTable, c *command) {
	k := kt.names[c.keys[0]]
	switch c.kind {
	case opGet:
		wr.Array(2)
		wr.Arg("GET")
		wr.Arg(k)
	case opSet:
		wr.Array(3)
		wr.Arg("SET")
		wr.Arg(k)
		wr.ArgUint(c.val)
	case opDel:
		wr.Array(2)
		wr.Arg("DEL")
		wr.Arg(k)
	case opCAS:
		wr.Array(4)
		wr.Arg("CAS")
		wr.Arg(k)
		wr.ArgUint(c.old)
		wr.ArgUint(c.val)
	case opSwap2:
		wr.Array(3)
		wr.Arg("SWAP2")
		wr.Arg(k)
		wr.Arg(kt.names[c.keys[1]])
	case opMGet:
		wr.Array(1 + int(c.nkeys))
		wr.Arg("MGET")
		for _, i := range c.keys[:c.nkeys] {
			wr.Arg(kt.names[i])
		}
	case opScan:
		wr.Array(4)
		wr.Arg("SCAN")
		wr.Arg(k)
		wr.Arg("")
		wr.ArgUint(scanLimit)
	case opIScan:
		wr.Array(5)
		wr.Arg("ISCAN")
		wr.Arg(indexName)
		wr.Arg(kt.ikeys[c.keys[0]])
		wr.Arg("")
		wr.ArgUint(scanLimit)
	}
}
