package runlog

import (
	"bufio"
	"io"
	"path/filepath"
)

// ScanStats accounts what a tolerant ledger read encountered. Records is the
// count of valid current-schema records returned; the other fields count
// what was skipped and why, so validators (p10obscheck -runlog) can
// distinguish a healthy ledger from a damaged one.
type ScanStats struct {
	// Lines is the number of physical lines (including the torn tail).
	Lines int
	// Records is the number of valid current-schema records.
	Records int
	// Corrupt counts newline-terminated lines that failed to parse.
	Corrupt int
	// WrongSchema counts parseable records carrying a different schema
	// version (rejected, never misinterpreted).
	WrongSchema int
	// UnterminatedTail reports a final line without a newline — the torn
	// tail of an interrupted writer, tolerated on read and sealed by the
	// next appender.
	UnterminatedTail bool
	// Bytes is the total bytes read.
	Bytes int64
}

// ScanDir reads the ledger under a runlog directory tolerantly: corrupt
// lines, wrong-schema records, and a truncated final line are skipped and
// counted in the returned stats. A missing ledger file returns an
// os.IsNotExist error.
func ScanDir(dir string) ([]Record, ScanStats, error) {
	return scanFile(filepath.Join(dir, LedgerFile))
}

// ScanReader is ScanDir over an arbitrary stream (tests, pipes).
func ScanReader(r io.Reader) ([]Record, ScanStats, error) {
	return scanReader(bufio.NewReader(r))
}
