package cardest

import "simquery/internal/model"

// Precision selects the serving tier of the mixed-precision inference
// plane (DESIGN.md §14): F64 is the reference path, F32 serves from
// packed-float32 lowered networks, Int8 additionally quantizes local-model
// dense layers per output channel. The tier is chosen once, at Harden time
// — estimators without a lowered path (or whose precision pre-check fails)
// serve F64, never an error.
type Precision = model.Precision

// The precision ladder, re-exported for serving configuration.
const (
	F64  = model.F64
	F32  = model.F32
	Int8 = model.Int8
)

// ParsePrecision converts a -precision flag value ("f64", "f32", "int8")
// to a Precision.
func ParsePrecision(s string) (Precision, error) { return model.ParsePrecision(s) }
