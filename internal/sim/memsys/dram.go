package memsys

// DRAMTiming holds core DRAM timing parameters in cycles. Table 1 gives
// tRP = tRCD = tCL = 13.75 ns and tBURST = 3.2 ns; at the 2 GHz core clock
// those round to 28, 28, 28 and 7 cycles.
type DRAMTiming struct {
	TRP    uint64 // row precharge
	TRCD   uint64 // row activate (RAS-to-CAS)
	TCL    uint64 // column access
	TBURST uint64 // data burst for one 128 B block
}

// Table1Timing returns the paper's DRAM timing at 2 GHz.
func Table1Timing() DRAMTiming {
	return DRAMTiming{TRP: 28, TRCD: 28, TCL: 28, TBURST: 7}
}

// VaultConfig describes one HMC memory vault.
type VaultConfig struct {
	// Banks is the number of DRAM banks in the vault (Table 1: 8).
	Banks int
	// RowShift sets the open-row granule: accesses whose addresses agree
	// above this shift hit the same row buffer. 13 models an 8 KiB row
	// footprint, typical for HMC-class vaults.
	RowShift uint
	Timing   DRAMTiming
}

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

// String returns the outcome's short name.
func (o RowOutcome) String() string {
	switch o {
	case RowHit:
		return "row-hit"
	case RowClosed:
		return "row-closed"
	default:
		return "row-conflict"
	}
}

type bank struct {
	openRow   uint32
	hasOpen   bool
	busyUntil uint64
}

// Vault models one memory vault: a set of banks with open-row policy and
// per-bank service serialization. It is purely a timing model.
type Vault struct {
	cfg      VaultConfig
	banks    []bank
	bankMask uint32
}

// NewVault builds a vault from cfg; cfg.Banks must be a power of two.
func NewVault(cfg VaultConfig) *Vault {
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		panic("memsys: vault bank count must be a positive power of two")
	}
	return &Vault{cfg: cfg, banks: make([]bank, cfg.Banks), bankMask: uint32(cfg.Banks - 1)}
}

// Access services a block access beginning no earlier than now and returns
// its completion time. Bank selection uses the block-number low bits so
// consecutive blocks in a vault spread across banks.
func (v *Vault) Access(a Addr, blockShift uint, now uint64) (done uint64) {
	done, _ = v.AccessEx(a, blockShift, now)
	return done
}

// AccessEx is Access plus the row-buffer outcome of the bank access, for
// trace emission. Timing is identical to Access.
func (v *Vault) AccessEx(a Addr, blockShift uint, now uint64) (done uint64, outcome RowOutcome) {
	b := &v.banks[(uint32(a)>>blockShift)&v.bankMask]
	row := uint32(a) >> v.cfg.RowShift
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	t := v.cfg.Timing
	var lat uint64
	switch {
	case b.hasOpen && b.openRow == row:
		lat, outcome = t.TCL+t.TBURST, RowHit // row buffer hit
	case !b.hasOpen:
		lat, outcome = t.TRCD+t.TCL+t.TBURST, RowClosed // closed bank
	default:
		lat, outcome = t.TRP+t.TRCD+t.TCL+t.TBURST, RowConflict // row conflict
	}
	b.openRow, b.hasOpen = row, true
	b.busyUntil = start + lat
	return start + lat, outcome
}
