package randfix

import "strings"

// case: no math/rand import ignored
func upper() string { return strings.ToUpper("x") }
