package spec_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"carsgo/internal/spec"
)

// parseProbeFirst is the reference Parse: it probes the schema version
// with json.Unmarshal, then decodes strictly, on every document.
func parseProbeFirst(data []byte) (*spec.Spec, error) {
	var probe struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if probe.Schema != spec.SchemaVersion {
		return nil, &spec.SchemaError{Got: probe.Schema}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &spec.Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// TestParseMatchesProbeFirst holds Parse, which decodes once unless the
// strict decode refuses the document or input follows it, to the
// probe-first reference: the same spec, or an error of the same type
// and text, on every input.
func TestParseMatchesProbeFirst(t *testing.T) {
	doc := spec.Canon(valid())
	// field puts one more top-level field at the front of doc.
	field := func(kv string) string { return "{" + kv + "," + doc[1:] }
	for _, c := range []struct{ name, in string }{
		{"valid", doc},
		{"valid indented", string(spec.Encode(valid()))},
		{"trailing space", doc + " \n\t\r\n"},
		{"wrong schema and unknown field", `{"schema":99,"bogus":1}`},
		{"wrong schema", field(`"schema":2`)},
		{"unknown field", field(`"bogus":1`)},
		{"wrong type", field(`"grid":"eight"`)},
		{"fractional schema", field(`"schema":1.5`)},
		{"truncated", doc[:len(doc)/2]},
		{"trailing bracket", doc + "]"},
		{"trailing second value", doc + " " + doc},
		{"invalid knob", field(`"grid":0`)},
		{"null", "null"},
		{"empty", ""},
	} {
		got, gotErr := spec.Parse([]byte(c.in))
		want, wantErr := parseProbeFirst([]byte(c.in))
		var gotSchema, wantSchema *spec.SchemaError
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Errorf("%s: Parse error %v, reference error %v", c.name, gotErr, wantErr)
		case gotErr != nil && (gotErr.Error() != wantErr.Error() ||
			errors.As(gotErr, &gotSchema) != errors.As(wantErr, &wantSchema)):
			t.Errorf("%s: Parse error %q (%T), reference error %q (%T)", c.name, gotErr, gotErr, wantErr, wantErr)
		case !reflect.DeepEqual(got, want):
			t.Errorf("%s: Parse = %+v, reference = %+v", c.name, got, want)
		}
	}
}
