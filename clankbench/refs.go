package main

import (
	"crypto/aes"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Go references for the kernels' outputs, computed apart from the
// simulator over the same generated inputs the kernels build in their own
// code (see internal/mibench). Each returns the expected prefix of the
// kernel's output stream.

func lcg(seed uint32) func() uint32 {
	s := seed
	return func() uint32 {
		s = s*1664525 + 1013904223
		return s
	}
}

func fnvMix(hash, v uint32) uint32 { return (hash ^ v) * 16777619 }

// refCRC: CRC-32 (IEEE) of the 3 KB buffer the crc kernel generates.
func refCRC() []uint32 {
	next := lcg(21)
	data := make([]byte, 3072)
	for i := range data {
		data[i] = byte(next() >> 24)
	}
	return []uint32{crc32.ChecksumIEEE(data)}
}

// refSHA: the five SHA-1 state words over the sha kernel's message.
func refSHA() []uint32 {
	msg := make([]byte, 1984)
	for i := range msg {
		msg[i] = byte(i*13 + 7)
	}
	sum := sha1.Sum(msg)
	out := make([]uint32, 5)
	for w := range out {
		out[w] = binary.BigEndian.Uint32(sum[w*4:])
	}
	return out
}

// refAES: an FNV hash over the aes kernel's eight AES-128 ECB blocks
// (FIPS-197 example key) and the first ciphertext word.
func refAES() []uint32 {
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	blocks := make([]byte, 128)
	for i := range blocks {
		blocks[i] = byte(i*7 + 3)
	}
	ciph, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	hash := uint32(2166136261)
	for b := 0; b < len(blocks); b += aes.BlockSize {
		ciph.Encrypt(blocks[b:b+aes.BlockSize], blocks[b:b+aes.BlockSize])
		for _, x := range blocks[b : b+aes.BlockSize] {
			hash = fnvMix(hash, uint32(x))
		}
	}
	return []uint32{hash, binary.LittleEndian.Uint32(blocks[0:4])}
}

// refDijkstra: an FNV hash over twelve single-source distance vectors on
// the kernel's generated 24-node graph, and the last source's distance to
// node 23.
func refDijkstra() []uint32 {
	const n = 24
	next := lcg(11)
	var adj [n][n]int32
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := next()
			switch {
			case i == j, (s>>20)&3 == 0:
				adj[i][j] = 0
			default:
				adj[i][j] = int32((s>>24)&63) + 1
			}
		}
	}
	hash := uint32(2166136261)
	var last int32
	for src := 0; src < 12; src++ {
		var dist [n]int32
		var visited [n]bool
		for i := range dist {
			dist[i] = 1 << 29
		}
		dist[src] = 0
		for i := 0; i < n; i++ {
			best, bestD := -1, int32(1<<30)
			for u := 0; u < n; u++ {
				if !visited[u] && dist[u] < bestD {
					bestD, best = dist[u], u
				}
			}
			if best < 0 {
				break
			}
			visited[best] = true
			for v := 0; v < n; v++ {
				if adj[best][v] > 0 && dist[best]+adj[best][v] < dist[v] {
					dist[v] = dist[best] + adj[best][v]
				}
			}
		}
		for j := 0; j < n; j++ {
			hash = fnvMix(hash, uint32(dist[j]))
		}
		last = dist[23]
	}
	return []uint32{hash, uint32(last)}
}

// kernelRefs maps each fleet kernel to its reference.
var kernelRefs = map[string]func() []uint32{
	"crc":      refCRC,
	"sha":      refSHA,
	"aes":      refAES,
	"dijkstra": refDijkstra,
}

// The micro program: a short kernel owned by the benchmark, whose input
// (an LCG seed) comes from the benchmark seed. It fills a word buffer,
// then makes a few read-modify-write passes over it — every pass is a
// chain of write-after-read hazards for the detector — and emits a hash
// and one mixed word.
const (
	microWords  = 40
	microPasses = 3
)

const microTemplate = `
uint buf[%d];

int main(void) {
	int i;
	int r;
	uint s = %#x;
	uint h = 2166136261;
	for (i = 0; i < %d; i++) {
		s = s * 1664525 + 1013904223;
		buf[i] = s;
	}
	for (r = 0; r < %d; r++) {
		for (i = 1; i < %d; i++) {
			buf[i] = buf[i] + (buf[i - 1] >> 3);
		}
		h = (h ^ buf[%d]) * 16777619;
	}
	__output(h);
	__output(buf[0] ^ buf[%d]);
	return 0;
}
`

// microSource returns the micro program for an input seed.
func microSource(seed uint32) string {
	return fmt.Sprintf(microTemplate, microWords, seed, microWords, microPasses,
		microWords, microWords-1, microWords-1)
}

// refMicro recomputes the micro program's outputs in Go.
func refMicro(seed uint32) []uint32 {
	var buf [microWords]uint32
	s := seed
	for i := range buf {
		s = s*1664525 + 1013904223
		buf[i] = s
	}
	h := uint32(2166136261)
	for r := 0; r < microPasses; r++ {
		for i := 1; i < microWords; i++ {
			buf[i] += buf[i-1] >> 3
		}
		h = fnvMix(h, buf[microWords-1])
	}
	return []uint32{h, buf[0] ^ buf[microWords-1]}
}

// equalPrefix reports whether got starts with want.
func equalPrefix(got, want []uint32) bool {
	if len(got) < len(want) {
		return false
	}
	for i, w := range want {
		if got[i] != w {
			return false
		}
	}
	return true
}
