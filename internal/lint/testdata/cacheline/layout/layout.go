// Package layout exercises the cacheline analyzer: fields whose writer
// tags differ need a full line of padding between them, also across the
// end of the struct; a struct that tags any field tags every field; a
// nested tagged struct is checked in place; untagged structs are none of
// the analyzer's business.
package layout

import "sync/atomic"

type pad [64]byte

// good has its three groups a line apart and a padded end.
type good struct {
	cfg    *int        //smpss:writer=shared
	closed atomic.Bool //smpss:writer=shared
	_      pad
	// submitted has its tag in a doc comment.
	//smpss:writer=submitter
	submitted    atomic.Int64
	scratch      []int //smpss:writer=submitter
	_            pad
	done, helped atomic.Int64 //smpss:writer=worker
	_            pad
}

// sameWriter needs no padding at all.
type sameWriter struct {
	a atomic.Int64 //smpss:writer=worker
	b atomic.Int64 //smpss:writer=worker
}

// deleted is good after somebody removed the padding between the
// read-mostly header and the submitter's counter.
type deleted struct {
	cfg       *int         //smpss:writer=shared
	submitted atomic.Int64 //smpss:writer=submitter // want "field submitted \\(writer=submitter\\) starts 0 bytes after cfg \\(writer=shared\\) ends"
	_         pad
	done      atomic.Int64 //smpss:writer=worker
	_         pad
}

// rounded pads to a line multiple instead of leaving a gap: 56 bytes
// are not enough when the allocator aligns the struct to 8.
type rounded struct {
	a atomic.Int64 //smpss:writer=submitter
	_ [56]byte
	b atomic.Int64 //smpss:writer=worker // want "field b \\(writer=worker\\) starts 56 bytes after a \\(writer=submitter\\) ends"
	_ pad
}

// openEnd is laid out well inside and unpadded at its end.
type openEnd struct {
	a atomic.Int64 //smpss:writer=submitter
	_ pad
	b atomic.Int64 //smpss:writer=worker // want "openEnd ends 0 bytes after b \\(writer=worker\\) and starts with a \\(writer=submitter\\)"
}

// forgotten tags one field and not the other.
type forgotten struct {
	a atomic.Int64 //smpss:writer=submitter
	b atomic.Int64 // want "field forgotten.b has no //smpss:writer= tag"
}

// misspelt names a writer that does not exist; the field stays untagged.
type misspelt struct {
	a atomic.Int64 //smpss:writer=submitter
	b atomic.Int64 //smpss:writer=wroker // want "unknown writer \"wroker\"" "field misspelt.b has no //smpss:writer= tag"
}

// list is a tagged struct that is padded on its own, like recycle.FreeList.
type list[T any] struct {
	ready []*T //smpss:writer=submitter
	_     pad
	freed []*T //smpss:writer=worker
	_     pad
}

// hostOK nests list after the submitter's fields: checked in place, no
// tag of its own.
type hostOK struct {
	n     atomic.Int64 //smpss:writer=submitter
	items list[int]
}

// hostBad puts a worker-written field right before list's Get side.
type hostBad struct {
	n     atomic.Int64 //smpss:writer=worker
	items list[int]    // want "field ready \\(writer=submitter\\) starts 0 bytes after n \\(writer=worker\\) ends"
}

// classesOK nests an array of lists, like recycle.Spill: each element is
// checked in place, and each pads its own sides.
type classesOK struct {
	n     atomic.Int64 //smpss:writer=submitter
	items [3]list[int]
}

// unpadded is a list without its trailing pad, which the rule catches
// on its own too.
type unpadded[T any] struct {
	ready []*T //smpss:writer=submitter
	_     pad
	freed []*T //smpss:writer=worker // want "unpadded ends 0 bytes after freed \\(writer=worker\\) and starts with ready \\(writer=submitter\\)"
}

// classesBad puts one element's Put side right before the next one's Get
// side, and the last Put side right before the first Get side.
type classesBad struct {
	items [2]unpadded[int] // want "field ready \\(writer=submitter\\) starts 0 bytes after freed \\(writer=worker\\) ends" "classesBad ends 0 bytes after freed \\(writer=worker\\) and starts with ready \\(writer=submitter\\)"
}

// plain has no tags and any layout it likes.
type plain struct {
	a, b atomic.Int64
}

var (
	_ good
	_ sameWriter
	_ deleted
	_ rounded
	_ openEnd
	_ forgotten
	_ misspelt
	_ hostOK
	_ hostBad
	_ classesOK
	_ classesBad
	_ plain
)
