module hybrids

go 1.23
