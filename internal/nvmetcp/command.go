package nvmetcp

// The opcodes a Command may carry (protocol.go has the wire values and
// each one's payload format).
const (
	OpRead        = opRead        // Buf filled from Off
	OpWrite       = opWrite       // Buf written at Off
	OpReadVec     = opReadVec     // every Segs[i].Dst filled from Segs[i].Off
	OpReadSamples = opReadSamples // record Segs[i].N at Segs[i].Off, through Xform, into Segs[i].Dst
	OpWriteVec    = opWriteVec    // every WSegs[i].Src written at WSegs[i].Off, as one store update
	OpFlush       = opFlush       // durability barrier over the connection's earlier writes
)

// Command is one I/O request: the paper's RPQ entry (§III-C). It is a
// plain value that names caller memory and owns none. Initiator.Submit
// is the one place it is validated and put on the wire, Reconnector the
// one place it is sent again, QPGroup the one place it is striped. A
// command's buffers are the submitter's again when Wait (or Do) returns
// and not before: a reconnecting layer recovers a lost connection by
// sending the stored Command again, so a write's sources must stay
// intact and a read's destinations may be landed in twice.
type Command struct {
	Op    byte
	Off   int64  // OpRead, OpWrite
	Buf   []byte // OpRead destination, OpWrite source
	Segs  []Seg  // OpReadVec, OpReadSamples: scatter list, filled in order
	WSegs []WSeg // OpWriteVec: gather list
	Xform byte   // OpReadSamples: the transform the target applies per record
	Lens  []int  // OpReadSamples, optional: len(Segs) slots that receive each record's landed length
}

// Seg is one scatter segment of a read. An OpReadVec fetches len(Dst)
// bytes from Off and ignores N. An OpReadSamples names a stored record,
// N bytes at Off, whose transformed output lands in Dst: Dst must hold
// TransformOutLen(xform, N) bytes for fixed-size transforms, or the
// expansion bound for TransformFlate.
type Seg struct {
	Dst []byte
	Off int64
	N   int
}

// SampleSeg is Seg under the name it has as an OpReadSamples record.
type SampleSeg = Seg

// WSeg is one gather segment of a vectored write: len(Src) bytes
// destined for byte offset Off on the remote store.
type WSeg struct {
	Src []byte
	Off int64
}

// handle is a submitted command. Wait returns the payload bytes it
// moved: landed by a read, written by a write, none for a barrier.
type handle interface{ Wait() (int, error) }

// layer is what Initiator, Reconnector and QPGroup each are: Submit
// puts a command in flight, Do runs one to completion.
type layer[P handle] interface {
	Submit(Command) (P, error)
	Do(Command) (int, error)
}

// forms are the named shapes of a Command, written once for the three
// layers that embed them. They add nothing to Submit and Do.
type forms[P handle] struct{ l layer[P] }

// ReadAt reads len(p) bytes at off, straight into p.
func (f forms[P]) ReadAt(p []byte, off int64) (int, error) {
	return f.l.Do(Command{Op: OpRead, Buf: p, Off: off})
}

// ReadAsync submits a read without waiting.
func (f forms[P]) ReadAsync(dst []byte, off int64) (P, error) {
	return f.l.Submit(Command{Op: OpRead, Buf: dst, Off: off})
}

// ReadVec reads every segment with one wire command.
func (f forms[P]) ReadVec(segs []Seg) (int, error) {
	return f.l.Do(Command{Op: OpReadVec, Segs: segs})
}

// ReadVecAsync submits one vectored read covering every segment.
func (f forms[P]) ReadVecAsync(segs []Seg) (P, error) {
	return f.l.Submit(Command{Op: OpReadVec, Segs: segs})
}

// ReadSamples has the target assemble and transform every record and
// returns the payload bytes landed; lens may be nil.
func (f forms[P]) ReadSamples(xform byte, segs []SampleSeg, lens []int) (int, error) {
	return f.l.Do(Command{Op: OpReadSamples, Segs: segs, Xform: xform, Lens: lens})
}

// ReadSamplesAsync submits one server-assembled read.
func (f forms[P]) ReadSamplesAsync(xform byte, segs []SampleSeg, lens []int) (P, error) {
	return f.l.Submit(Command{Op: OpReadSamples, Segs: segs, Xform: xform, Lens: lens})
}

// WriteAt writes p at off.
func (f forms[P]) WriteAt(p []byte, off int64) (int, error) {
	return f.l.Do(Command{Op: OpWrite, Buf: p, Off: off})
}

// WriteVec writes every segment with one wire command and returns the
// data bytes written.
func (f forms[P]) WriteVec(segs []WSeg) (int, error) {
	return f.l.Do(Command{Op: OpWriteVec, WSegs: segs})
}

// Flush runs a durability barrier.
func (f forms[P]) Flush() error {
	_, err := f.l.Do(Command{Op: OpFlush})
	return err
}
