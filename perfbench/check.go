package main

import (
	"fmt"

	"spectm/internal/proto"
)

// keyTable holds the wire names of a workload's keys and each key's
// initial byval index key (the ISCAN start bounds).
type keyTable struct {
	names []string
	ikeys []string
}

func newKeyTable(w *workload) *keyTable {
	kt := &keyTable{names: make([]string, w.keys), ikeys: make([]string, w.keys)}
	for i := range kt.names {
		kt.names[i] = keyName(i)
		kt.ikeys[i] = indexKey(initialValue(i))
	}
	return kt
}

// replyChecker reads and checks the reply to each command of one
// connection. A failed check is returned as bad; err reports a broken
// stream, after which no further reply can be read.
type replyChecker struct {
	w   *workload
	rd  *proto.Reader
	rep proto.Reply
}

// read consumes c's reply. ok and val are the outcome the generator
// observes: GET found and its value, or a conditional write's success.
func (rc *replyChecker) read(c *command) (ok bool, val uint64, bad string, err error) {
	rep := &rc.rep
	if err = rc.rd.ReadReply(rep); err != nil {
		return false, 0, "", err
	}
	if rep.Kind == proto.KindError {
		return false, 0, fmt.Sprintf("%s: error reply %q", opNames[c.kind], rep.Str), nil
	}
	k := int(c.keys[0])
	switch c.kind {
	case opGet:
		ok, val, bad = rc.value(k)
	case opSet:
		if rep.Kind != proto.KindSimple || string(rep.Str) != "OK" {
			bad = fmt.Sprintf("set %d: reply %q %q", k, rep.Kind, rep.Str)
		}
	case opDel, opCAS, opSwap2:
		if rep.Kind != proto.KindInt || (rep.Int != 0 && rep.Int != 1) {
			bad = fmt.Sprintf("%s %d: reply %q %d", opNames[c.kind], k, rep.Kind, rep.Int)
		}
		ok = rep.Int == 1
	case opMGet:
		if rep.Kind != proto.KindArray || rep.Int != int64(c.nkeys) {
			return false, 0, "", fmt.Errorf("mget: reply %q of %d elements, want %d", rep.Kind, rep.Int, c.nkeys)
		}
		for _, ki := range c.keys[:c.nkeys] {
			if err = rc.rd.ReadReply(rep); err != nil {
				return false, 0, "", err
			}
			if _, _, b := rc.value(int(ki)); b != "" && bad == "" {
				bad = "mget " + b
			}
		}
	case opScan, opIScan:
		bad, err = rc.scan(c)
	}
	return ok, val, bad, err
}

// value checks the GET-shaped reply already in rc.rep for key k.
func (rc *replyChecker) value(k int) (found bool, val uint64, bad string) {
	rep := &rc.rep
	switch {
	case rep.Kind == proto.KindBulk && rep.Null:
		if rc.w.stable {
			return false, 0, fmt.Sprintf("get %d: missing key", k)
		}
		return false, 0, ""
	case rep.Kind == proto.KindInt:
		val = uint64(rep.Int)
		if rc.w.stable && !ownedBy(val, k) {
			return true, val, fmt.Sprintf("get %d: value %#x belongs to key %d", k, val, val>>idShift)
		}
		return true, val, ""
	}
	return false, 0, fmt.Sprintf("get %d: reply kind %q", k, rep.Kind)
}

// scan checks a SCAN or ISCAN reply: key/value pairs, each value owned
// by its key, SCAN keys ascending from the start key (on a stable
// workload exactly the next scanLimit keys), ISCAN values ascending
// from the start bound.
func (rc *replyChecker) scan(c *command) (bad string, err error) {
	rep := &rc.rep
	name := opNames[c.kind]
	if rep.Kind != proto.KindArray || rep.Int%2 != 0 {
		return "", fmt.Errorf("%s: reply %q of %d elements", name, rep.Kind, rep.Int)
	}
	start := int(c.keys[0])
	n := int(rep.Int / 2)
	if n > scanLimit {
		bad = fmt.Sprintf("%s: %d results, limit %d", name, n, scanLimit)
	}
	if c.kind == opScan && rc.w.stable && n != min(scanLimit, rc.w.keys-start) && bad == "" {
		bad = fmt.Sprintf("scan from %d: %d results, want %d", start, n, min(scanLimit, rc.w.keys-start))
	}
	prevKey, prevVal := -1, uint64(0)
	for i := 0; i < n; i++ {
		if err = rc.rd.ReadReply(rep); err != nil {
			return "", err
		}
		k, okKey := keyIndex(rep.Str)
		if rep.Kind != proto.KindBulk || !okKey {
			if bad == "" {
				bad = fmt.Sprintf("%s: result key %q", name, rep.Str)
			}
			k = -1
		}
		if err = rc.rd.ReadReply(rep); err != nil {
			return "", err
		}
		if rep.Kind != proto.KindInt {
			if bad == "" {
				bad = fmt.Sprintf("%s: result value kind %q", name, rep.Kind)
			}
			continue
		}
		v := uint64(rep.Int)
		if bad != "" || k < 0 {
			continue
		}
		switch {
		case rc.w.stable && !ownedBy(v, k):
			bad = fmt.Sprintf("%s: key %d holds %#x", name, k, v)
		case c.kind == opScan && (k < start || k <= prevKey):
			bad = fmt.Sprintf("%s from %d: key %d after %d", name, start, k, prevKey)
		case c.kind == opScan && rc.w.stable && k != start+i:
			bad = fmt.Sprintf("scan from %d: result %d is key %d", start, i, k)
		case c.kind == opIScan && (v < initialValue(start) || v < prevVal):
			bad = fmt.Sprintf("iscan from %#x: value %#x after %#x", initialValue(start), v, prevVal)
		}
		prevKey, prevVal = k, v
	}
	return bad, nil
}
