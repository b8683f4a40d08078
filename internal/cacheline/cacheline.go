// Package cacheline holds the padding the runtime's layout discipline is
// built from.
//
// The rule (docs/ARCHITECTURE.md, "Cache-line ownership"; enforced by
// smpssvet's cacheline analyzer on structs whose fields carry
// //smpss:writer= tags): fields written per task by the submitter, fields
// written per task by workers, and fields both sides only read live in
// groups at least one full line of padding apart.  A gap, not rounding to
// a multiple of the line: the heap aligns a large struct to 8 or 16
// bytes, so only 64 bytes of padding guarantee two fields never share a
// line wherever the allocator puts the struct.
package cacheline

// Size is the line size the layout assumes.
const Size = 64

// Pad is one line of padding: `_ cacheline.Pad` between two groups.
type Pad [Size]byte
