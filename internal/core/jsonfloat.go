package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// JSONFloat is a float64 whose JSON form survives the non-finite values
// fairness analysis legitimately produces (a zero probability against a
// positive one yields ε = +Inf). Finite values marshal as plain JSON
// numbers; +Inf, -Inf and NaN marshal as the strings "inf", "-inf" and
// "nan", and unmarshal back from either form. The root package aliases
// it as fairness.JSONFloat; it lives here so internal schema types
// (fairmetrics, loadgen) can share the convention without importing the
// public package.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	return f.AppendJSON(nil), nil
}

// AppendJSON appends the JSON form of f to b and returns the extended
// slice: a sentinel string for a non-finite value, otherwise the number
// exactly as encoding/json formats a float64 (ES6 number-to-string:
// 'f' notation unless the magnitude is below 1e-6 or at least 1e21, and
// an exponent without a leading zero).
func (f JSONFloat) AppendJSON(b []byte) []byte {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return append(b, `"inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-inf"`...)
	case math.IsNaN(v):
		return append(b, `"nan"`...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// Shorten e-07 to e-7, as encoding/json does.
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// UnmarshalJSON implements json.Unmarshaler, accepting a JSON number or
// one of the sentinel strings "inf", "-inf", "nan".
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	switch s {
	case `"inf"`:
		*f = JSONFloat(math.Inf(1))
		return nil
	case `"-inf"`:
		*f = JSONFloat(math.Inf(-1))
		return nil
	case `"nan"`:
		*f = JSONFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("fairness: invalid JSONFloat %s", s)
	}
	*f = JSONFloat(v)
	return nil
}
