package cache

// StateBytes returns the bytes of c's state: its set headers, its pool
// and its hi array.
func (c *Cache) StateBytes() int { return cap(c.sets)*8 + cap(c.pool)*4 + cap(c.hi)*4 }
