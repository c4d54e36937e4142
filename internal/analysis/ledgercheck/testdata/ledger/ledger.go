// Package ledgerfixture exercises the ledgercheck analyzer: every model
// Store path must reach Ledger.RecordWrite.
package ledgerfixture

// Ledger mirrors model.Ledger.
type Ledger interface {
	RecordWrite(epoch uint64, line uint64, token uint64)
}

type env struct{ ledger Ledger }

// GoodDirect records ground truth directly in Store.
type GoodDirect struct{ env env }

func (m *GoodDirect) Store(core int, line, token uint64) {
	m.env.ledger.RecordWrite(1, line, token)
}

// GoodIndirect reaches RecordWrite through a helper, like the models'
// tryEnqueue pattern.
type GoodIndirect struct{ env env }

func (m *GoodIndirect) Store(core int, line, token uint64) {
	m.tryEnqueue(line, token)
}

func (m *GoodIndirect) tryEnqueue(line, token uint64) {
	if line == 0 {
		m.tryEnqueue(line+1, token)
		return
	}
	m.env.ledger.RecordWrite(1, line, token)
}

// BadSilent never reports its writes: the crash checker would verify a
// vacuous theorem against it.
type BadSilent struct{ env env }

func (m *BadSilent) Store(core int, line, token uint64) { // want `BadSilent\.Store never reaches Ledger\.RecordWrite`
}

// BadDeep loses the ledger two helpers down.
type BadDeep struct{ env env }

func (m *BadDeep) Store(core int, line, token uint64) { // want `BadDeep\.Store never reaches Ledger\.RecordWrite`
	m.enqueue(line, token)
}

func (m *BadDeep) enqueue(line, token uint64) {
	m.flush(line)
}

func (m *BadDeep) flush(line uint64) {}
