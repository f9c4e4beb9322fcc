package memsys

// Vault geometry and DRAM timing (Table 1). Timings are in cycles: Table 1
// gives tRP = tRCD = tCL = 13.75 ns and tBURST = 3.2 ns, which at the
// 2 GHz core clock round to 28, 28, 28 and 7 cycles.
const (
	// VaultBanks is the number of DRAM banks in each vault (Table 1: 8).
	VaultBanks = 8
	// rowShift sets the open-row granule: accesses whose addresses agree
	// above this shift hit the same row buffer. 13 models an 8 KiB row
	// footprint, typical for HMC-class vaults.
	rowShift = 13

	// TRP is the row precharge time.
	TRP uint64 = 28
	// TRCD is the row activate (RAS-to-CAS) time.
	TRCD uint64 = 28
	// TCL is the column access time.
	TCL uint64 = 28
	// TBURST is the data burst time for one 128 B block.
	TBURST uint64 = 7
)

// RowOutcome classifies one bank access by its row-buffer interaction; it
// rides along as the Arg of DRAM trace events so a Perfetto capture shows
// locality, not just latency.
type RowOutcome uint32

// Row-buffer outcomes, cheapest first.
const (
	// RowHit: the bank's open row already held the block (tCL + tBURST).
	RowHit RowOutcome = iota
	// RowClosed: the bank had no open row and paid an activate (tRCD).
	RowClosed
	// RowConflict: a different row was open and paid precharge + activate
	// (tRP + tRCD).
	RowConflict
)

type bank struct {
	openRow   uint32
	hasOpen   bool
	busyUntil uint64
}

// Vault models one memory vault: VaultBanks banks with open-row policy and
// per-bank service serialization. It is purely a timing model; the zero
// Vault is ready to use, every bank closed and idle.
type Vault struct {
	banks [VaultBanks]bank
}

// Access services a block access beginning no earlier than now and returns
// its completion time and the row-buffer outcome of the bank access (for
// trace emission). Bank selection uses the block-number low bits so
// consecutive blocks in a vault spread across banks.
func (v *Vault) Access(a Addr, now uint64) (done uint64, outcome RowOutcome) {
	b := &v.banks[block(a)%VaultBanks]
	row := uint32(a) >> rowShift
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	var lat uint64
	switch {
	case b.hasOpen && b.openRow == row:
		lat, outcome = TCL+TBURST, RowHit // row buffer hit
	case !b.hasOpen:
		lat, outcome = TRCD+TCL+TBURST, RowClosed // closed bank
	default:
		lat, outcome = TRP+TRCD+TCL+TBURST, RowConflict // row conflict
	}
	b.openRow, b.hasOpen = row, true
	b.busyUntil = start + lat
	return start + lat, outcome
}
