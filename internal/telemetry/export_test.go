package telemetry

import "unsafe"

// CellAddr is the address of lane l's cell of c, for layout tests.
func (c *Counter) CellAddr(l Lane) uintptr { return uintptr(unsafe.Pointer(c.lanes[l%Lanes])) }
