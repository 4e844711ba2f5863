package randfix

import mrand "math/rand"

// case: aliased import still caught
func aliased() int { return mrand.Intn(10) } // want "mrand.Intn draws from the package-global source"
