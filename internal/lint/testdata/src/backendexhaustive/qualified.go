package backendfix

import "carsgo/internal/cars"

// case: qualified constants flagged
func qualified(b cars.Backend) {
	switch b { // want "switch over cars.Backend misses BackendCARS, BackendSmemSpill and has no default"
	case cars.BackendRFCache:
	}
}

// case: constant of another type sharing a backend name clean
func lookalike(mode int) {
	const BackendSmemSpill = 1
	switch mode {
	case BackendSmemSpill:
	}
}
