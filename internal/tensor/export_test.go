package tensor

// ForEachKernelFamily lets the external test package (which may import
// nn and optim) run a subtest under both kernel families.
var ForEachKernelFamily = forEachKernelFamily
