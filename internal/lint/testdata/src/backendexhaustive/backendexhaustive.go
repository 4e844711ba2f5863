// Package backendfix plants switches over cars.Backend that miss a
// backend without a default, beside exhaustive and defaulted twins.
// The dot import gives the bare constant spelling package cars itself
// uses. Each "case:" comment opens one case of TestBackendExhaustive,
// which runs to the next one.
package backendfix

import . "carsgo/internal/cars"

// case: missing case without default flagged
func missing(b Backend) {
	switch b { // want "switch over cars.Backend misses BackendRFCache and has no default"
	case BackendCARS:
	case BackendSmemSpill:
	}
}

// case: all cases clean
func all(b Backend) {
	switch b {
	case BackendCARS:
	case BackendSmemSpill:
	case BackendRFCache:
	}
}

// case: subset with default clean
func subset(b Backend) {
	switch b {
	case BackendCARS:
	default:
	}
}

// case: multi-constant case counts each
func multi(b Backend) {
	switch b {
	case BackendCARS, BackendSmemSpill, BackendRFCache:
	}
}

// case: unrelated switch clean
func unrelated(n int) {
	switch n {
	case 1:
	case 2:
	}
}

// case: nested backend switch flagged
func nested(a int, b Backend) {
	switch a {
	case 1:
		switch b { // want "switch over cars.Backend misses BackendCARS, BackendRFCache and has no default"
		case BackendSmemSpill:
		}
	}
}
