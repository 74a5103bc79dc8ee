package main

import (
	"crypto/sha256"
	"math/rand"
)

// The benchmark owns its generator: no program-side file can move a
// workload. The vocabulary is fixed (a few prose words, then every
// consonant-vowel-consonant-vowel word in a fixed order); only the draw
// depends on the seed.
var vocab = buildVocab()

func buildVocab() []string {
	words := []string{
		"the", "light", "of", "and", "sea", "wind", "stone", "dark", "river",
		"night", "ship", "king", "gold", "dream", "land", "said", "he", "word",
		"time", "green", "song", "house", "morning", "letter",
	}
	seen := map[string]bool{}
	for _, w := range words {
		seen[w] = true
	}
	var syl []string
	for _, c := range "bcdfghjklmnprstvw" {
		for _, v := range "aeiou" {
			syl = append(syl, string(c)+string(v))
		}
	}
	for i := 0; len(words) < 4096; i++ {
		w := syl[i%len(syl)] + syl[(i/len(syl))%len(syl)]
		if !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	return words
}

// genText appends `lines` lines of prose-like text to dst: 4–11 words
// per line drawn Zipf-distributed from vocab (so word frequencies have a
// long tail and "light" lands on roughly four lines in ten), one word in
// twelve capitalized, occasional commas, a period at each line end.
func genText(dst []byte, rng *rand.Rand, lines int) []byte {
	zipf := rand.NewZipf(rng, 1.07, 1, uint64(len(vocab)-1))
	for i := 0; i < lines; i++ {
		n := 4 + rng.Intn(8)
		for j := 0; j < n; j++ {
			if j > 0 {
				dst = append(dst, ' ')
			}
			w := vocab[zipf.Uint64()]
			if rng.Intn(12) == 0 {
				dst = append(dst, w[0]-'a'+'A')
				dst = append(dst, w[1:]...)
			} else {
				dst = append(dst, w...)
			}
			if rng.Intn(9) == 0 {
				dst = append(dst, ',')
			}
		}
		dst = append(dst, '.', '\n')
	}
	return dst
}

// workloadRNG derives a workload's generator from the run seed, so two
// workloads never share a stream and the same seed repeats exactly.
func workloadRNG(seed int64, workload string) *rand.Rand {
	h := sha256.Sum256([]byte(workload))
	mix := int64(h[0])<<24 | int64(h[1])<<16 | int64(h[2])<<8 | int64(h[3])
	return rand.New(rand.NewSource(seed*1000003 + mix))
}

// lineStarts returns the offset of every line start in data.
func lineStarts(data []byte) []int {
	starts := []int{}
	at := 0
	for at < len(data) {
		starts = append(starts, at)
		for at < len(data) && data[at] != '\n' {
			at++
		}
		at++
	}
	return starts
}

// rotate writes data rotated to start at byte offset off into dst, so
// neither the byte stream nor any byte-balanced chunk boundary repeats.
func rotate(dst, data []byte, off int) []byte {
	dst = append(dst[:0], data[off:]...)
	return append(dst, data[:off]...)
}

// scaled applies the -scale factor to a size, never below floor.
func scaled(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		return floor
	}
	return v
}
