// Package randfix plants draws from math/rand's global source and
// wall-clock seeds beside explicitly seeded twins. Each "case:"
// comment opens one case of TestSeededRand, which runs to the next one
// (or to the end of its file).
package randfix

import (
	"math/rand"
	"time"
)

// case: global Intn flagged
func globalIntn() int { return rand.Intn(10) } // want "rand.Intn draws from the package-global source"

// case: global Shuffle and Float64 both flagged
func globalShuffle(xs []int) float64 {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "rand.Shuffle draws from the package-global source"
	return rand.Float64()                                                 // want "rand.Float64 draws from the package-global source"
}

// case: explicitly seeded New(NewSource(literal)) allowed
func seededLiteral() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(10)
}

// case: seed from named parameter allowed
func seededParam(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// case: NewSource(time.Now) flagged
func wallClockSource() int {
	r := rand.New(rand.NewSource(time.Now().UnixNano())) // want "rand.NewSource from time.Now is nondeterministic"
	return r.Intn(10)
}

// case: Seed(time.Now) flagged
func wallClockSeed() {
	rand.Seed(time.Now().UnixNano()) // want "rand.Seed from time.Now is nondeterministic"
}

// case: Seed from constant allowed
func constantSeed() {
	rand.Seed(42)
}

// case: New with opaque source flagged
func opaqueSource(src rand.Source) int {
	r := rand.New(src) // want "rand.New needs a visible seed"
	return r.Intn(10)
}

// case: methods on a seeded generator allowed
func seededMethod(r *rand.Rand) int { return r.Intn(10) }

// case: shadowing local named rand not confused
type fake struct{}

func (fake) Intn(int) int { return 0 }

func shadowed() int {
	rand := fake{}
	return rand.Intn(10)
}
