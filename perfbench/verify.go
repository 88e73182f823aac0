package main

import "encoding/binary"

// Data that checks itself. Every 64-byte slot of remote memory the
// benchmark touches holds a record: a header naming the slot's key and the
// record's version, then a body derived from (salt, key, version). A read
// is correct when the header names the key that was read, the version lies
// in the range the issuing thread could legally observe, and the body
// matches the header. The salt comes from the workload seed, so runs with
// different seeds put different bytes on the wire.
const recordBytes = 64

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// fillRecord writes the record (key, ver) into buf[:recordBytes].
func fillRecord(buf []byte, salt uint64, key, ver uint32) {
	binary.LittleEndian.PutUint32(buf[0:], key)
	binary.LittleEndian.PutUint32(buf[4:], ver)
	s := mix64(salt ^ uint64(key)<<32 ^ uint64(ver))
	for o := 8; o < recordBytes; o += 8 {
		s = mix64(s)
		binary.LittleEndian.PutUint64(buf[o:], s)
	}
}

// checkRecord reports whether buf holds an intact record for key whose
// version lies in [lo, hi].
func checkRecord(buf []byte, salt uint64, key, lo, hi uint32) bool {
	if binary.LittleEndian.Uint32(buf[0:]) != key {
		return false
	}
	ver := binary.LittleEndian.Uint32(buf[4:])
	if ver < lo || ver > hi {
		return false
	}
	s := mix64(salt ^ uint64(key)<<32 ^ uint64(ver))
	for o := 8; o < recordBytes; o += 8 {
		s = mix64(s)
		if binary.LittleEndian.Uint64(buf[o:]) != s {
			return false
		}
	}
	return true
}

// xorshift is the drivers' input generator: one per load goroutine,
// seeded from the workload seed, allocation-free.
type xorshift uint64

func newXorshift(seed uint64) xorshift { return xorshift(mix64(seed) | 1) }

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// intn returns a value in [0, n).
func (x *xorshift) intn(n uint64) uint64 { return x.next() % n }
