package randfix

import "math/rand/v2"

// case: rand v2 global IntN flagged
func globalV2() int { return rand.IntN(10) } // want "rand.IntN draws from the package-global source"
