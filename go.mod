module element

go 1.23
