package tensor

// DType names a storage precision. There is one: every tensor, trained or
// served, is float64, so F64 is the only value. The type remains because
// models.NewCompiledInfer and serve.NewCompiledModelReplica still take it.
type DType uint8

// F64 is float64 storage, the precision of every weight and activation.
const F64 DType = 0
