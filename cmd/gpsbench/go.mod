module gps/cmd/gpsbench

go 1.21

require gps v0.0.0

replace gps => ../..
